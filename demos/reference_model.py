"""Tour of the reference slice: the mass-2 vacuum model in isotropic form.

Builds the radial p-harmonic potential at p = 1.5, where every
normalization collapses to a closed form, and prints the sampled values
next to their exact targets. Then varies p to show which structures
persist away from the special exponent.
"""

import math

from masscap import model_profile

PI = math.pi


def main():
    print("reference slice at p = 1.5")
    print("=" * 60)
    model = model_profile(1.5)
    anchors = [
        ("flux constant C", model.flux_constant, 60.0),
        ("u'(1)", float(model.du_curve.y[0]), -15.0 / 16.0),
        ("capacity K_p", model.Kp, 4.0 * PI * math.sqrt(60.0)),
        ("W(0)", float(model.Ws_curve.y[0]), PI * (15.0 / 16.0) ** 2),
    ]
    for name, value, exact in anchors:
        rel = abs(value - exact) / abs(exact)
        print(f"  {name:16s} = {value:.15g}   exact {exact:.15g}   rel err {rel:.1e}")

    W0, dW0 = float(model.Ws_curve.y[0]), float(model.dWs_curve.y[0])
    print(f"\n  minimal boundary forces dW/dt(0) = 2/(p-1) W(0):")
    print(f"  dW/dt(0) = {dW0:.12g}, 4 W(0) = {4.0 * W0:.12g}")
    print(f"  residual dW/dt(0)/(4 W(0)) - 1 = {dW0 / (4.0 * W0) - 1.0:.1e}")

    print("\nbehaviour across p")
    print("=" * 60)
    print(f"  {'p':>5s} {'C':>12s} {'K_p':>12s} {'W(0)':>10s} {'W(inf)':>10s} {'4pi(3-p)^2':>11s}")
    for p in (1.2, 1.35, 1.5, 1.65, 1.8):
        m = model_profile(p)
        s = 3.0 - p
        print(
            f"  {p:5.2f} {m.flux_constant:12.5f} {m.Kp:12.5f} "
            f"{float(m.Ws_curve.y[0]):10.6f} {float(m.Ws_curve.y[-1]):10.6f} "
            f"{4.0 * PI * s**2:11.6f}"
        )
    print("  W(t) climbs from its boundary value to the plateau 4 pi (3-p)^2.")

    print("\ntail normalizations at p = 1.5 (sigma = (3-p)/(p-1) = 3)")
    print("=" * 60)
    tails = [
        ("c_fit", model.c_fit, 20.0, "C/sigma, leading coefficient of u"),
        ("c_tilde", model.c_tilde, 20.0 ** (1.0 / 3.0), "c_fit^(1/sigma), exponential map"),
    ]
    for name, value, exact, meaning in tails:
        print(f"  {name:8s} = {value:.15g}   exact {exact:.15g}   ({meaning})")

if __name__ == "__main__":
    main()

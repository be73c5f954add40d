"""The two coefficient triples and the combinations they keep monotone.

Solves both flavors on the reference slice and demonstrates, numerically,
the two structural facts the verification layer relies on: the combined
quantity Q = 4 pi (3-p)^2 f + g W + (p-1)(3-p) h dW/dt is constant on the
model (zero for the decaying flavor), and its boundary value reproduces
W(0). The third fact, the relation that makes dQ/dt a perfect square,
holds by construction: both triples take g from the pair system
dh/dr = b g + c h, which satisfies it for any h (the tests prove this
symbolically).
"""

import math

from masscap import model_constancy, model_profile, solve_decaying, solve_growing

PI = math.pi


def main():
    for p in (1.2, 1.5, 1.8):
        model = model_profile(p)
        dec = solve_decaying(model)
        grow = solve_growing(model)
        s = 3.0 - p
        W0 = float(model.Ws_curve.y[0])
        print(f"p = {p}  (W(0) = {W0:.10g})")
        print("-" * 64)

        for sol in (dec, grow):
            Q0, dev = model_constancy(sol, model)
            print(f"  {sol.flavor:9s} Q(0) = {Q0: .12g}   max |Q - Q(0)| = {dev:.2e}")
        resolved = 8.0 * PI * s**3 + 16.0 * PI * s**2 - 16.0 * PI * s
        print(f"  growing constant, closed form 8 pi s^3 + 16 pi s^2 - 16 pi s = {resolved:.12g}")

        f0, g0, h0 = dec.boundary_values()
        identity = -4.0 * PI * s**2 * f0 / (g0 + 2.0 * s * h0)
        print(f"  boundary identity -4 pi s^2 f(0) / (g(0) + 2 s h(0)) = {identity:.10g}")
        print(f"    signs: f(0) = {f0:.4g} < 0, g(0) + 2 s h(0) = {g0 + 2 * s * h0:.4g} > 0")
        print()


if __name__ == "__main__":
    main()

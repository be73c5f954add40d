"""The sharp capacity-to-mass bound and its equality case.

For every geometry with nonnegative scalar curvature and minimal boundary,
the total mass dominates 2 (C_p / K_p)^(1/(3-p)); equality holds exactly
on the vacuum family. The script sweeps masses and bump strengths and
tabulates the margin, the monotone-combination slopes, and how far the
flow's vacuum end is from the reference slice shifted in t (the
end_is_reference gate, which pins adm and C_p).
"""

import math

from masscap import (
    certify_case,
    family_bumped,
    family_schwarzschild,
    level_flow,
    model_profile,
    solve_decaying,
    solve_growing,
)


def main():
    p = 1.5
    model = model_profile(p)
    dec = solve_decaying(model)
    grow = solve_growing(model)

    cases = [(f"vacuum m={m:g}", family_schwarzschild(m)) for m in (1.0, 2.0, 5.0)]
    cases += [(f"bumped eps={e:g}", family_bumped(1.0, e)) for e in (0.05, 0.1)]

    header = f"{'case':>16s} {'adm':>10s} {'margin':>12s} {'min slope':>11s} {'end gate':>10s} {'equality':>8s}"
    print(f"sharp bound at p = {p}")
    print(header)
    print("-" * len(header))
    for tag, warp in cases:
        result = certify_case(warp, model, level_flow(warp, p), dec, grow)
        rep = result.report
        [end] = [check for check in result.checks if check["name"] == "end_is_reference"]
        print(
            f"{tag:>16s} {rep.diagnostics['adm']:10.6f} {rep.penrose_margin:12.3e} "
            f"{rep.min_forward_slope:11.2e} {end['value']:10.2e} {str(rep.equality_flag):>8s}"
        )
    print()
    print("vacuum members sit on the equality case (margin at rounding level);")
    print("the bump pushes the mass strictly above the capacity radius.")


if __name__ == "__main__":
    main()

"""A compactly supported curvature bump and the inequality it saturates.

The bumped family modifies the vacuum warping equation by a C^2 bump so
that the scalar curvature is exactly 2 eps bump(s) / phi^2. Along the
level-set flow, the residual of the second-order inequality that W(t)
obeys,

    (p-1)(3-p) W'' - W + 4 pi (3-p)^2 - 2(2-p) W' - (p-1)(5-p)/4 W'^2/W,

equals 2 pi (3-p)^2 R phi^2 identically (the tests prove it
symbolically): zero in vacuum, a positive lump where the bump lives. Its
floor along the flow is the certifier's check of R >= 0. This script runs
the flow and prints that curvature term.
"""

import math

import numpy as np

from masscap import family_bumped, family_schwarzschild, level_flow, masses, scalar_curvature


def show(tag, warp, p):
    flow = level_flow(warp, p)
    res = 2.0 * math.pi * (3.0 - p) ** 2 * flow.R.y * flow.phi.y**2
    band = 1e-6 * 4.0 * math.pi * (3.0 - p) ** 2
    print(f"  {tag}")
    print(f"    residual range  [{np.min(res):+.3e}, {np.max(res):+.3e}]")
    print(f"    vacuum band {band:.3e}, floor -slope_slack = -1e-8")


def main():
    p = 1.5
    print(f"curvature bump demo at p = {p}")
    print("=" * 64)

    warp = family_bumped(1.0, 0.1)
    R = scalar_curvature(warp)
    hawk, adm = masses(warp)
    inside = (warp.s_grid >= 2.0) & (warp.s_grid <= 6.0)
    print(f"  bump support s in [2, 6]; max R = {np.max(R):.6g}, zero outside:")
    print(f"    max |R| outside support = {np.max(np.abs(R[~inside])):.1e}")
    print(f"  Hawking mass: {hawk[0]:.6g} at the horizon -> {adm:.6g} at infinity")
    print()

    print("residual of the W-inequality, 2 pi (3-p)^2 R phi^2, along the flow")
    show("Schwarzschild m=2 (vacuum, residual should be zero)", family_schwarzschild(2.0), p)
    for eps in (0.05, 0.1):
        show(f"bumped eps={eps}", family_bumped(1.0, eps), p)
    print()
    print("  eps < 0 breaks the nonnegative-curvature hypothesis; the")
    print("  verification layer refuses such metrics rather than certifying them.")


if __name__ == "__main__":
    main()

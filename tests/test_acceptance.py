"""Acceptance gate: twelve numbered criteria, one verdict line each.

Every criterion pins its tolerance explicitly and checks against closed-form
oracles, symbolic reductions or sign certificates; nothing here consults the
library's own pass thresholds. Run with `pytest tests/test_acceptance.py -v -s` to see the
verdict lines alongside the test names.
"""

import math

import numpy as np

from masscap import capacity_Cp, constant_diagnostics, masses, model_constancy
from masscap.numerics import fit_power_tail
from masscap.verify import _end_error
from conftest import (
    BUMP_EPSILONS,
    P_GRID,
    SCHWARZSCHILD_MASSES,
    curvature_term,
    perfect_square_remainder,
    w_identity,
)

PI = math.pi


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def test_criterion_01_model_constants(lab):
    tol = 1e-8
    model = lab.model(1.5)
    refs = [
        ("flux constant", model.flux_constant, 60.0),
        ("boundary slope", float(model.du_curve.y[0]), -15.0 / 16.0),
        ("K_p", model.Kp, 4.0 * PI * math.sqrt(60.0)),
        ("W(0)", float(model.Ws_curve.y[0]), PI * (15.0 / 16.0) ** 2),
    ]
    worst = max(_rel(value, ref) for _, value, ref in refs)
    _verdict(1, "model constants at p=1.5", worst <= tol, f"worst rel {worst:.2e}, tol {tol:g}")


def test_criterion_02_series_coefficient_fit(lab):
    tol = 1e-6
    worst = 0.0
    for p in (1.2, 1.5 - 1e-6, 1.5 + 1e-6, 1.8):
        model = lab.model(p)
        s = 3.0 - p
        fit = fit_power_tail(model.u_curve, -s / (p - 1.0))
        worst = max(worst, _rel(fit.c1, -(s**2) / (p - 1.0)))
    _verdict(2, "fitted 1/r coefficient", worst <= tol, f"worst rel {worst:.2e}, tol {tol:g}")


def _model_Q(sol, model):
    p = model.p
    s = 3.0 - p
    return (
        4.0 * PI * s**2 * sol.f_curve.y
        + sol.g_curve.y * model.Ws_curve.y
        + (p - 1.0) * s * sol.h_curve.y * model.dWs_curve.y
    )


def test_criterion_03_constancy_on_the_model(lab):
    tol = 1e-6
    worst = 0.0
    for p in P_GRID:
        model = lab.model(p)
        dec, grow = lab.triples(p)
        W0 = float(model.Ws_curve.y[0])
        Qd = _model_Q(dec, model)
        Qg = _model_Q(grow, model)
        worst = max(worst, float(np.max(np.abs(Qd))) / W0)
        worst = max(worst, float(np.max(np.abs(Qg - Qg[0]))) / abs(float(Qg[0])))
    _verdict(3, "constancy on the reference slice", worst <= tol, f"worst {worst:.2e}, tol {tol:g}")


def test_criterion_04_boundary_identity_and_signs(lab):
    tol = 1e-6
    worst = 0.0
    certs = True
    for p in P_GRID:
        model = lab.model(p)
        dec, grow = lab.triples(p)
        s = 3.0 - p
        f0, g0, h0 = dec.boundary_values()
        denom = g0 + 2.0 * s * h0
        certs = certs and f0 < 0.0 and denom > 0.0
        worst = max(worst, _rel(-4.0 * PI * s**2 * f0 / denom, float(model.Ws_curve.y[0])))
        _, g0g, h0g = grow.boundary_values()
        certs = certs and (g0g + 2.0 * s * h0g) < 0.0
    ok = worst <= tol and certs
    _verdict(4, "boundary identity and signs", ok, f"worst rel {worst:.2e}, tol {tol:g}, signs {certs}")


def test_criterion_05_perfect_square_relation(lab):
    # The relation holds for the pair system as algebra, whatever h is
    # (perfect_square_remainder); the triples must also keep Q constant on
    # the reference slice, measured by model_constancy.
    tol = 1e-6
    exact = perfect_square_remainder() == 0
    worst = 0.0
    for p in P_GRID:
        model = lab.model(p)
        W0 = float(model.Ws_curve.y[0])
        for sol in lab.triples(p):
            Q0, dev = model_constancy(sol, model)
            worst = max(worst, dev / (W0 if sol.flavor == "decaying" else abs(Q0)))
    ok = exact and worst <= tol
    detail = f"symbolic remainder {'0' if exact else 'nonzero'}, constancy {worst:.2e}, tol {tol:g}"
    _verdict(5, "perfect-square relation", ok, detail)


def test_criterion_06_capacity_coordinate_invariance(lab):
    tol = 1e-8
    warp = lab.warp("schwarzschild", m=2.0)
    worst = max(_rel(capacity_Cp(warp, p), lab.model(p).Kp) for p in P_GRID)
    _verdict(6, "warped vs isotropic K_p", worst <= tol, f"worst rel {worst:.2e}, tol {tol:g}")


def test_criterion_07_w_inequality_identity(lab):
    # The W inequality's residual is 2 pi (3-p)^2 R phi^2 as algebra
    # (w_identity), so on each flow it is read from R per sample: zero
    # within the band in vacuum, and above the floor on the bumps.
    floor = -1e-8
    exact = w_identity()[2] == 0
    worst_floor = 0.0
    worst_vacuum = 0.0
    for p in P_GRID:
        band = 1e-6 * 4.0 * PI * (3.0 - p) ** 2
        res = curvature_term(lab.flow(p, "schwarzschild", m=2.0))
        worst_vacuum = max(worst_vacuum, float(np.max(np.abs(res))) / band)
        for eps in BUMP_EPSILONS:
            res = curvature_term(lab.flow(p, "bumped", m0=1.0, eps=eps))
            worst_floor = min(worst_floor, float(np.min(res)))
    ok = exact and worst_vacuum <= 1.0 and worst_floor >= floor
    detail = (
        f"symbolic remainder {'0' if exact else 'nonzero'}, vacuum {worst_vacuum:.2e} of band, "
        f"floor {worst_floor:.2e} >= {floor:g}"
    )
    _verdict(7, "W-inequality residual identity", ok, detail)


def _nonflat_cases():
    for p in P_GRID:
        for m in SCHWARZSCHILD_MASSES:
            yield p, "schwarzschild", {"m": m}
        for eps in BUMP_EPSILONS:
            yield p, "bumped", {"m0": 1.0, "eps": eps}


def test_criterion_08_monotonicity(lab):
    slack = -1e-8
    worst = 0.0
    flags_ok = True
    for p, tag, params in _nonflat_cases():
        rep = lab.report(p, tag, **params)
        worst = min(worst, rep.min_forward_slope)
        flags_ok = flags_ok and rep.equality_flag == (tag == "schwarzschild")
    ok = worst >= slack and flags_ok
    _verdict(8, "monotone combinations", ok, f"min slope {worst:.2e} >= {slack:g}, flags {flags_ok}")


def test_criterion_09_sharp_mass_bound(lab):
    tol = 1e-6
    worst = 0.0
    margins_ok = True
    for p, tag, params in _nonflat_cases():
        rep = lab.report(p, tag, **params)
        if tag == "schwarzschild":
            worst = max(worst, abs(rep.penrose_margin) / params["m"])
        else:
            margins_ok = margins_ok and rep.penrose_margin > 0.0
    ok = worst <= tol and margins_ok
    _verdict(9, "sharp capacity-to-mass bound", ok, f"worst |margin|/m {worst:.2e}, bumped > 0: {margins_ok}")


def test_criterion_10_end_is_reference(lab):
    # Beyond its end_s every geometry is Schwarzschild of mass adm, so its W
    # is the reference slice's at a shifted t, the shift fixed by adm and C_p.
    tol = 1e-9
    worst = 0.0
    for p, tag, params in _nonflat_cases():
        flow, end_s = lab.flow(p, tag, **params), lab.warp(tag, **params).end_s
        worst = max(worst, _end_error(flow, lab.model(p), end_s))
    _verdict(10, "vacuum end is the shifted reference slice", worst <= tol, f"worst rel {worst:.2e}, tol {tol:g}")


def test_criterion_11_euclidean_oracle(lab):
    tol = 1e-8
    flat = lab.warp("flat")
    worst = 0.0
    for p in P_GRID:
        s = 3.0 - p
        worst = max(worst, _rel(capacity_Cp(flat, p), 4.0 * PI * (s / (p - 1.0)) ** (p - 1.0)))
    adm = abs(masses(flat)[1])
    ok = worst <= tol and adm <= tol
    _verdict(11, "Euclidean capacity and zero mass", ok, f"worst rel {worst:.2e}, |adm| {adm:.2e}, tol {tol:g}")


def test_criterion_12_reported_diagnostics(lab):
    q0_tol, limit_tol = 1e-6, 1e-5
    worst_q0 = worst_limit = 0.0
    printed = []
    for p in P_GRID:
        s = 3.0 - p
        dec, grow = lab.triples(p)
        diag = constant_diagnostics(lab.model(p), dec, grow)
        q0 = 8.0 * PI * s**3 + 16.0 * PI * s**2 - 16.0 * PI * s
        worst_q0 = max(worst_q0, _rel(diag["growing_Q0_measured"], q0))
        worst_limit = max(
            worst_limit,
            _rel(diag["g_constant_measured"], -4.0 / s),
            _rel(diag["g_plus_sh_measured"], s - 4.0 / s),
        )
        printed.append(f"  p={p}:")
        for key in sorted(diag):
            printed.append(f"    {key} = {diag[key]:.12g}")
    ok = worst_q0 <= q0_tol and worst_limit <= limit_tol
    detail = (
        f"growing Q(0) worst rel {worst_q0:.2e} <= {q0_tol:g}, "
        f"g and g + (3-p)h limits worst rel {worst_limit:.2e} <= {limit_tol:g}"
    )
    _verdict(12, "resolved constants", ok, detail)
    for line in printed:
        print(line)

"""Certification layer: monotonicity, the vacuum end, and the sharp mass bound.

Given a geometry's level-set flow and the coefficient triples from the
reference slice, this module assembles the monotone combinations

    Q(t) = 4 pi (3-p)^2 f + g W + (p-1)(3-p) h dW/dt,

as their constant value Q0 on the reference slice plus the terms in which
the flow's W and dW/dt differ from the slice's at the same t. It certifies
their forward differences against the slope slack wherever rounding leaves
that slack resolvable, checks the boundary inequality W(0) <= W_s(0) with
W_s(0) read from the reference model, checks pointwise that the flow's
vacuum end is the reference slice shifted in t and the family solve's own
end (which pins the mass and the capacity, and with them every limit of
the case in closed form), and reports the sharp capacity-to-mass margin with equality detection.
Everything that the underlying inequalities do not
actually pin down numerically is reported under `diagnostics` and never
gates. `certify_case` turns all of that into the named pass/fail checks of
one (p, geometry) case, and `reference_checks` gates the closed-form
constants of the reference slice once per exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import betaln

from .coefficients import (
    CoefficientSolution,
    _q_terms,
    _same_model,
    at_t,
    model_constancy,
)
from .schwarzschild import ModelGeometry
from .warped import FlowProfile, WarpProfile, capacity_Cp, masses

__all__ = [
    "CaseResult",
    "VerificationReport",
    "case_report",
    "certify_case",
    "constant_diagnostics",
    "evaluate_Q",
    "reference_checks",
]


@dataclass(frozen=True)
class VerificationReport:
    """The numbers of one case.

    case_report fills every field for a geometry with a minimal boundary;
    one without (the flat exterior, certify_case) has diagnostics only, and
    its other fields stay None. diagnostics carries named numbers that are
    reported but never gate a pass/fail decision; they are the case's only
    copy of C_p, the mass and the slopes. curves carries evaluate_Q's two
    arrays, keyed by flavor, which case_report evaluated on the way, so
    callers reuse them instead of evaluating them again; never reported.
    """

    min_forward_slope: float | None = None
    penrose_margin: float | None = None
    equality_flag: bool | None = None
    diagnostics: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict, repr=False, compare=False)


def _nodes(flow: FlowProfile) -> np.ndarray:
    """Indices of flow.t_grid decimated to ~4096 points, ending at t_max."""
    n_t = flow.t_grid.size
    return np.r_[0 : n_t - 1 : max(1, n_t // 4096), n_t - 1]


def evaluate_Q(flow: FlowProfile, *sols: CoefficientSolution) -> list[np.ndarray]:
    """Assemble the monotone combinations of triples of one model along a flow.

    Returns one array per triple, all from one at_t evaluation: Q at the
    first len(Q) t of flow.t_grid[_nodes(flow)]; at least one triple is
    needed (ValueError otherwise).
    Each triple is carried over by its t-parametrization (the shared
    level-set normalization makes t comparable across geometries).
    On the reference slice Q is the constant sol.Q0, so along the flow

        Q = Q0 + g (W - W_s) + (p-1)(3-p) h (dW/dt - dW_s/dt),

    with g, h, W_s and dW_s/dt at the flow's t: f drops out, and no O(r)
    terms cancel. Each Q is kept over the longest prefix of live t where
    64 eps (|g| W + (p-1)(3-p) |h dW/dt|), which bounds the rounding that its
    forward differences read on vacuum flows, stays within slope_slack. A
    Q that is not finite on that prefix raises ValueError naming its flavor.
    """
    nodes = _nodes(flow)
    t = flow.t_grid[nodes]
    live, Ws, dWs, triples = at_t(t, *sols)
    if abs(flow.p - sols[0].p) > 1e-12:
        raise ValueError(f"flow is at p = {flow.p}, coefficients at p = {sols[0].p}")
    c = (flow.p - 1.0) * (3.0 - flow.p)
    W, dWdt = flow.W.y[nodes][live], flow.dWdt.y[nodes][live]
    curves = []
    for sol, (_, g, h) in zip(sols, triples):
        slack = sol.model.tol.slope_slack
        floor = 64.0 * np.finfo(float).eps * (np.abs(g) * W + c * np.abs(h * dWdt))
        n = int(np.argmax(np.append(floor, np.inf) > slack))
        if n < 2:
            raise ValueError(
                f"the gated window of the {sol.flavor} Q holds {n} of {t.size} samples: "
                f"64 eps of its terms exceeds slope_slack = {slack:g} from t = {t[n]:.6g}"
            )
        Q = (sol.Q0 + g * (W - Ws) + c * h * (dWdt - dWs))[:n]
        if not np.all(np.isfinite(Q)):
            raise ValueError(f"the {sol.flavor} Q is not finite in its gated window")
        curves.append(Q)
    return curves


def _monotonicity(Q: np.ndarray, accept_rel: float) -> tuple[float, bool]:
    """(smallest forward difference of Q, equality flag).

    certify_case gates the slope against -slope_slack. The flag is set when
    the whole curve stays within accept_rel of its initial value, scaled by
    the curve's own magnitude.
    """
    deviation = float(np.max(np.abs(Q - Q[0])))
    scale = max(1.0, abs(float(Q[0])), float(np.max(np.abs(Q))))
    return float(np.min(np.diff(Q))), bool(deviation <= accept_rel * scale)


def _tail_limit(x: np.ndarray, y: np.ndarray) -> float:
    """Constant term of the least-squares fit y ~ c0 + c1/x + c2/x**2.

    The fit runs over the top two decades of the x range, x >= x[-1]/100,
    and needs at least 8 samples there.
    """
    mask = x >= x[-1] / 100.0
    if np.count_nonzero(mask) < 8:
        raise ValueError("not enough samples in the limit window")
    xs = x[mask]
    design = np.column_stack([np.ones_like(xs), xs**-1.0, xs**-2.0])
    coef, *_ = np.linalg.lstsq(design, y[mask], rcond=None)
    return float(coef[0])


class _HypothesisViolation(ValueError):
    """The geometry violates a hypothesis of the mass bound."""


def _end_error(flow: FlowProfile, model: ModelGeometry, warp: WarpProfile) -> tuple[float, float]:
    """(end_is_reference, end_mass) of the vacuum end beyond warp.end_s.

    There the geometry is the Schwarzschild slice of mass adm, whose own
    potential u_M has u_M' = -C_M phi^(-kappa), kappa = 2/(p-1), with
    C_M = (2 adm)^(kappa-1) / B(kappa-1, 1/2) (the beta function of
    warped._capacity_tail). Flux conservation makes u = (C/C_M) u_M there,
    and W, which depends only on phi and u'/u, is scale-invariant, so
    W(t) = W_s(t + delta) with delta = (p-1) ln(C/C_M) and C^(p-1) =
    C_p/(4 pi). end_is_reference is the largest |phi - warp.phi_fn(s)| / phi
    and |W - W_s(t + delta)| / W_s at evaluate_Q's t-nodes with s >= end_s,
    W where model.level_radii(t + delta) is live (below r = 1 where a vacuum
    family's t = 0 shifts below 0). Past level_flow's hand-off the flow is
    the slice's closed form in adm and C: the phi term reads it against the
    family solve, the W term (B(x; kappa-1, 1/2) in x = 2 adm/phi against
    I_x(sigma+1, sigma) in r) against the model and C_p.
    end_mass is the largest |hawking - adm| / adm at those nodes and at the
    family's first sample with s >= end_s, which reads adm at full size and
    is neither the flow nor adm's own sample at s_max.
    """
    p, nodes = flow.p, _nodes(flow)
    s = flow.s_of_t.y[nodes]
    nodes, s = nodes[s >= warp.end_s], s[s >= warp.end_s]
    kappa = 2.0 / (p - 1.0)
    ln_CM = (kappa - 1.0) * math.log(2.0 * flow.adm) - betaln(kappa - 1.0, 0.5)
    delta = math.log(flow.Cp / (4.0 * math.pi)) - (p - 1.0) * ln_CM
    r, live = model.level_radii(flow.t_grid[nodes] + delta)
    if not np.any(live):
        raise ValueError(f"no flow sample with s >= {warp.end_s:g} has a live shifted radius")
    Ws, phi = model.level_data(r).W, flow.phi.y[nodes]
    shape = np.r_[np.abs(warp.phi_fn(s) - phi) / phi, np.abs(flow.W.y[nodes][live] - Ws) / Ws]
    start = masses(warp)[0][np.searchsorted(warp.s_grid, warp.end_s)]
    mass = np.abs(np.r_[flow.hawking.y[nodes], start] - flow.adm) / flow.adm
    return float(np.max(shape)), float(np.max(mass))


def constant_diagnostics(
    model: ModelGeometry,
    dec: CoefficientSolution,
    grow: CoefficientSolution,
) -> dict:
    """The constants of the reference slice that are measured from the solves.

    The tail limits of g + r and g + (3-p) h for the growing triple, fitted
    over the two decades below min(1e5, R_max), and each flavor's Q(0) with
    the largest deviation of Q from it on the model grid. reference_checks
    compares them with their closed forms. Triples of another model raise
    ValueError (model_constancy) before any fit runs.
    """
    Q0_dec, dev_dec = model_constancy(dec, model)
    Q0_grow, dev_grow = model_constancy(grow, model)
    s = 3.0 - model.p
    r = model.r_grid
    stop = int(np.searchsorted(r, min(1.0e5, model.R_max), side="right"))
    r, g, h = r[:stop], grow.g[:stop], grow.h[:stop]
    g_const = _tail_limit(r, g + r)
    g_plus_sh = _tail_limit(r, g + s * h)
    return {
        "g_constant_measured": g_const,
        "g_plus_sh_measured": g_plus_sh,
        "growing_Q0_measured": float(Q0_grow),
        "growing_Q0_deviation": float(dev_grow),
        "decaying_Q0_measured": float(Q0_dec),
        "decaying_Q0_deviation": float(dev_dec),
    }


def case_report(
    flow: FlowProfile,
    model: ModelGeometry,
    dec: CoefficientSolution,
    grow: CoefficientSolution,
) -> VerificationReport:
    """The numbers of one geometry against the reference slice.

    Checks the hypotheses of the mass bound first, so that the error they
    raise is the one reported at any grid: the flow's existence already
    certifies the minimal boundary, and the scalar curvature must be
    nonnegative along it. This is the certifier's one check of R >= 0:
    every sample keeps R >= -min(1e-9 max(1, max|R|), slope_slack /
    (2 pi (3-p)^2 phi^2)), the tighter of R's rounding and a W-inequality
    residual 2 pi (3-p)^2 R phi^2 of -slope_slack; a dip below raises
    _HypothesisViolation, a ValueError.

    Then it measures both flavors' monotonicity, the boundary gradient
    bound and the sharp capacity-to-mass margin m - 2 (C_p/K_p)**(1/(3-p)),
    which is nonnegative under the hypotheses, with equality exactly on the
    reference family. The equality flag fires when the margin is below
    accept_rel relative to max(adm, 1) and both Q curves stay within
    accept_rel of their initial values. The diagnostics carry C_p, K_p, adm,
    the capacity radius, the growing Q's limit in closed form,
    growing_limit_bound_resolved (the vacuum end makes it L = 8 pi s^2
    (K_p/C_p)^(1/s) adm + 8 pi s^3 - 16 pi s, s = 3-p, which Q0_growing
    meets on vacuum and stays below otherwise), the flow's solver counts and
    largest scaled step-error norm (flow_nfev, flow_steps, flow_max_error),
    and the bound's horizon_W_gap = W_s(0) - W(0), W_s(0) =
    model.grid_data.W[0]: the t = 0 end of the decaying monotonicity, whose
    Q vanishes on the slice (reference_checks gates it as decaying_zero).
    Numerical check failures surface in the report's slopes and gaps, which
    certify_case gates. Triples of another model and a flow at another p
    than the model's raise ValueError. Every budget is model.tol.
    """
    _same_model(model, dec, grow)
    if abs(flow.p - model.p) > 1e-12:
        raise ValueError("flow and reference model disagree on p")
    s = 3.0 - model.p
    R = flow.R.y
    residual_floor = model.tol.slope_slack / (2.0 * math.pi * s**2 * flow.phi.y**2)
    floor = np.minimum(1e-9 * max(1.0, float(np.max(np.abs(R)))), residual_floor)
    if np.any(R < -floor):
        raise _HypothesisViolation(
            f"scalar curvature dips to {float(np.min(R)):g}; "
            "hypotheses of the mass bound are violated"
        )
    capacity_radius = 2.0 * (flow.Cp / model.Kp) ** (1.0 / s)
    margin = flow.adm - capacity_radius
    equality = abs(margin) <= model.tol.accept_rel * max(abs(flow.adm), 1.0)
    curves = dict(zip(("decaying", "growing"), evaluate_Q(flow, dec, grow)))

    diagnostics = {}
    for flavor, q in curves.items():
        slope, flat = _monotonicity(q, model.tol.accept_rel)
        diagnostics[f"min_slope_{flavor}"] = slope
        diagnostics[f"Q0_{flavor}"] = float(q[0])
        equality = equality and flat

    bound_value = (
        8.0 * math.pi * s**2 * (model.Kp / flow.Cp) ** (1.0 / s) * flow.adm
        + 8.0 * math.pi * s**3
        - 16.0 * math.pi * s
    )
    t_growing = flow.t_grid[_nodes(flow)][curves["growing"].size - 1]
    diagnostics.update({
        "growing_coverage": float(t_growing) / flow.t_max,
        "growing_limit_bound_resolved": bound_value,
        "horizon_W_gap": float(model.grid_data.W[0]) - flow.W0,
        "Cp": flow.Cp,
        "Kp": model.Kp,
        "adm": flow.adm,
        "capacity_radius": capacity_radius,
        "flow_nfev": flow.nfev,
        "flow_steps": flow.steps,
        "flow_max_error": flow.max_error,
    })
    return VerificationReport(
        min_forward_slope=min(diagnostics["min_slope_decaying"], diagnostics["min_slope_growing"]),
        penrose_margin=margin,
        equality_flag=bool(equality),
        diagnostics=diagnostics,
        curves=curves,
    )


def _check(name: str, value, tolerance, passed: bool, detail: str = "") -> dict:
    entry = {"name": name, "value": value, "tolerance": tolerance, "passed": bool(passed)}
    if detail:
        entry["detail"] = detail
    return entry


@dataclass(frozen=True)
class CaseResult:
    """The verdict on one geometry at one exponent.

    checks are the named gates in a fixed order, each a dict with name,
    value, tolerance, passed and, for a stage failure, detail. A case whose
    computation stopped has no report and holds one failed check, named
    after the stage, whose detail is the stage's message. A geometry
    without a minimal boundary gets a report that holds only its
    diagnostics. C_p and the mass are report.diagnostics["Cp"] and ["adm"].
    """

    p: float
    family: str
    params: dict
    report: VerificationReport | None = None
    checks: tuple[dict, ...] = ()

    @property
    def passed(self) -> bool:
        return all(check["passed"] for check in self.checks)

    @classmethod
    def failed(
        cls, p: float, family: str, params: dict, stage: str, exc: Exception
    ) -> CaseResult:
        """A case stopped at `stage` by `exc`: one failed check carrying its message."""
        check = _check(stage, None, None, False, str(exc))
        return cls(p, family, dict(params), checks=(check,))

    def light(self) -> CaseResult:
        """This result without the report's Q arrays, cheap to keep."""
        if self.report is None:
            return self
        return replace(self, report=replace(self.report, curves={}))


def _gated_checks(
    report: VerificationReport, end: tuple[float, float], vacuum: bool, model: ModelGeometry
) -> tuple[dict, ...]:
    """The seven checks of a minimal-boundary case; end is _end_error's pair."""
    diag = report.diagnostics
    acc, slack = model.tol.accept_rel, model.tol.slope_slack
    slope_dec, slope_grow = diag["min_slope_decaying"], diag["min_slope_growing"]
    horizon_gap = diag["horizon_W_gap"]
    horizon_scale = acc * float(model.grid_data.W[0])
    margin, margin_scale = report.penrose_margin, acc * max(diag["adm"], 1.0)
    if vacuum:
        margin_check = _check("penrose_sharp", margin, margin_scale, abs(margin) <= margin_scale)
    else:
        margin_check = _check("penrose_margin", margin, 0.0, margin > 0.0)
    equality = report.equality_flag
    return (
        _check("monotone_decaying", slope_dec, slack, slope_dec >= -slack),
        _check("monotone_growing", slope_grow, slack, slope_grow >= -slack),
        _check("horizon_gradient_bound", horizon_gap, horizon_scale, horizon_gap >= -horizon_scale),
        margin_check,
        _check("end_is_reference", end[0], acc, end[0] <= acc),
        _check("end_mass", end[1], acc, end[1] <= acc),
        _check("equality_flag", equality, None, bool(equality) == vacuum),
    )


def reference_checks(
    model: ModelGeometry,
    dec: CoefficientSolution,
    grow: CoefficientSolution,
) -> tuple[tuple[dict, ...], dict]:
    """Gate the closed-form constants of the reference slice at p = model.p.

    Both monotone combinations are exactly constant on the reference slice,
    so every constant they carry has a closed form. With s = 3 - p:

        growing_Q0        Q(0) = 8 pi s^3 + 16 pi s^2 - 16 pi s
        growing_constant  max |Q - Q(0)| vanishes
        decaying_zero     the decaying Q vanishes
        g_limit           lim (g + r) = -4/s
        g_plus_sh_limit   lim (g + s h) = s - 4/s

    With accept_rel from model.tol, the tolerances are accept_rel times
    |Q(0)| for the first two and times the decaying Q's largest term on the
    grid for the third. The last two are tail fits and get
    10 accept_rel max(1, |limit|).
    Returns the checks and the measured values (constant_diagnostics).
    """
    acc = model.tol.accept_rel
    p = model.p
    s = 3.0 - p
    diag = constant_diagnostics(model, dec, grow)

    q0, q0_form = diag["growing_Q0_measured"], grow.Q0
    q0_tol = acc * abs(q0_form)
    dev, dev_tol = diag["growing_Q0_deviation"], acc * abs(q0)
    terms = _q_terms(p, dec.f, dec.g, dec.h, model.grid_data.W, model.grid_data.dWdt)
    q_dec = float(np.max(np.abs(terms[0] + terms[1] + terms[2])))
    dec_tol = acc * max(float(np.max(np.abs(term))) for term in terms)
    checks = [
        _check("growing_Q0", q0, q0_tol, abs(q0 - q0_form) <= q0_tol),
        _check("growing_constant", dev, dev_tol, dev <= dev_tol),
        _check("decaying_zero", q_dec, dec_tol, q_dec <= dec_tol),
    ]
    limits = (
        ("g_limit", diag["g_constant_measured"], -4.0 / s),
        ("g_plus_sh_limit", diag["g_plus_sh_measured"], s - 4.0 / s),
    )
    for name, value, form in limits:
        bound = 10.0 * acc * max(1.0, abs(form))
        checks.append(_check(name, value, bound, abs(value - form) <= bound))
    return tuple(checks), diag


def certify_case(
    warp: WarpProfile,
    model: ModelGeometry,
    flow: FlowProfile | None = None,
    dec: CoefficientSolution | None = None,
    grow: CoefficientSolution | None = None,
) -> CaseResult:
    """Certify one geometry against the reference slice at p = model.p.

    A geometry without a minimal boundary (the flat exterior) is checked
    against the Euclidean capacity 4 pi ((3-p)/(p-1))**(p-1) and zero mass;
    flow, dec and grow are not needed. One with a minimal boundary needs
    its flow at p and both triples, and gets case_report plus the gated
    checks: both monotonicities, the boundary gradient bound, the margin,
    the vacuum end's shape and mass, and the equality flag (R >= 0 is a
    hypothesis, which case_report checks first). The vacuum members (warp.vacuum:
    Schwarzschild, bumps with eps = 0) must meet the equality case
    sharply, every other geometry the strict margin without equality. Every
    one must have a vacuum end, beyond warp.end_s, that is the reference
    slice shifted in t and the family solve's own end to within accept_rel
    (end_is_reference, _end_error): that pins its adm and C_p, and with them
    every limit of the case; end_mass reads adm against the Hawking mass
    along that end and at the family's first sample on it. A failed
    hypothesis of the mass bound is the failed stage check "hypotheses",
    any other error of case_report or of the end gate the stage check
    "case_report", and a failed flat capacity or mass the stage check
    "capacity". Triples solved on another model than `model` raise
    ValueError, as in every function that takes both.
    Every tolerance derives from model.tol.
    """
    tol = model.tol
    p, tag, params = model.p, warp.family_tag, dict(warp.params)
    if not warp.minimal_boundary:
        try:
            Cp = capacity_Cp(warp, p)
            _, adm = masses(warp)
        except (ValueError, RuntimeError) as exc:
            return CaseResult.failed(p, tag, params, "capacity", exc)
        target = 4.0 * math.pi * ((3.0 - p) / (p - 1.0)) ** (p - 1.0)
        cap_tol = tol.accept_rel * target
        checks = (
            _check("capacity_euclidean", Cp, cap_tol, abs(Cp - target) <= cap_tol),
            _check("adm_zero", adm, tol.accept_rel, abs(adm) <= tol.accept_rel),
        )
        diag = {"Cp": Cp, "adm": adm, "capacity_target": target}
        return CaseResult(p, tag, params, VerificationReport(diagnostics=diag), checks)

    if flow is None or dec is None or grow is None:
        raise ValueError("a minimal boundary needs its flow and both coefficient triples")
    _same_model(model, dec, grow)
    try:
        report = case_report(flow, model, dec, grow)
        end = _end_error(flow, model, warp)
    except _HypothesisViolation as exc:
        return CaseResult.failed(p, tag, params, "hypotheses", exc)
    except (ValueError, RuntimeError) as exc:
        return CaseResult.failed(p, tag, params, "case_report", exc)
    checks = _gated_checks(report, end, warp.vacuum, model)
    return CaseResult(p, tag, params, report, checks)

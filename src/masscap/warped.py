"""Rotationally symmetric asymptotically flat geometries ds^2 + phi(s)^2 g0.

Everything reduces to the warping factor phi: level spheres have mean
curvature H = 2 phi'/phi and Hawking mass (phi/2)(1 - phi'^2), the scalar
curvature is R = 2(1 - phi'^2)/phi^2 - 4 phi''/phi, and the radial
p-harmonic potential follows from the conserved flux phi^2 |u'|^(p-2) u',
so u' = -C phi**(-2/(p-1)) with C fixed by u = 1 on the boundary.

Three families are provided: the static vacuum slices (phi'' =
(1 - phi'^2)/(2 phi), giving the first integral phi' = sqrt(1 - 2m/phi)),
the same with a compactly supported curvature bump added (R = 2 eps
bump(s)/phi^2 exactly), and the flat exterior phi = 1 + s whose boundary
sphere is not minimal. The level-set reparametrization by t = (1-p) log u
is solved backward from the outer radius, where it is a contraction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import beta, betainc

from .numerics import (
    DenseSolution,
    SampledCurve,
    _check_finite,
    _check_int,
    _check_p,
    dop853,
    panel_integrals,
    right_cumulative,
)

__all__ = [
    "DEFAULT_N_S",
    "DEFAULT_N_T",
    "DEFAULT_S_MAX",
    "FlowProfile",
    "WarpProfile",
    "capacity_Cp",
    "family_bumped",
    "family_flat_exterior",
    "family_schwarzschild",
    "level_flow",
    "masses",
    "radial_p_harmonic",
    "scalar_curvature",
    "spline_bump",
]

DEFAULT_S_MAX = 5.0e3
DEFAULT_N_S = 2048
DEFAULT_N_T = 32768

_GEOM_RTOL = 1e-12

# Minimum number of integrator steps across the level-set flow: the step is
# capped at t_max / _MIN_FLOW_STEPS. The cap binds on every step of the
# README's flows (Schwarzschild m = 2 and bumped (1, 0.1) at p = 1.2, 1.5
# and 1.8 take 2500 or 2501 steps of 15 right-hand sides each, none
# rejected), so it, not the 1e-12 tolerance, sets the cost of level_flow.
# It stays at 2500: every sampled flow value depends on it, and no check yet
# measures what a coarser cap would cost in accuracy.
_MIN_FLOW_STEPS = 2500


def _bump_edge(v):
    """Outer B-spline piece v^3/6; v is the distance to the nearer end knot."""
    return v * v * v / 6.0


def _bump_middle(v):
    """Inner B-spline piece (-3 v^3 + 3 v^2 + 3 v + 1)/6; v from its inner knot."""
    return (-3.0 * v * v * v + 3.0 * v * v + 3.0 * v + 1.0) / 6.0


def spline_bump(s1: float, s2: float) -> Callable[[np.ndarray], np.ndarray]:
    """C^2 cubic bump supported on [s1, s2] with peak value 1.

    The uniform cubic B-spline basis function, rescaled. Twice continuous
    differentiability keeps the curvature (which differentiates phi twice)
    continuous; the third derivative jumps at the five knots
    s1 + k (s2 - s1)/4, where family_bumped restarts its solve.

    A scalar argument (the ODE right-hand sides pass one per call) takes a
    plain-float branch and returns a float; an array is evaluated piecewise
    under masks. Both paths evaluate the same product-only expressions (no
    `**`, whose array and libm results may differ by an ulp), so they agree
    bit for bit.
    """
    if not s2 > s1:
        raise ValueError("bump support needs s2 > s1")
    width = (s2 - s1) / 4.0

    def bump(s):
        if isinstance(s, float) or np.ndim(s) == 0:
            x = (float(s) - s1) / width
            if 0.0 < x < 1.0:
                return 1.5 * _bump_edge(x)
            if 1.0 <= x < 2.0:
                return 1.5 * _bump_middle(x - 1.0)
            if 2.0 <= x < 3.0:
                return 1.5 * _bump_middle(3.0 - x)
            if 3.0 <= x < 4.0:
                return 1.5 * _bump_edge(4.0 - x)
            return 0.0
        x = (np.asarray(s, dtype=float) - s1) / width
        out = np.zeros_like(x)
        m = (x > 0.0) & (x < 1.0)
        out[m] = _bump_edge(x[m])
        m = (x >= 1.0) & (x < 2.0)
        out[m] = _bump_middle(x[m] - 1.0)
        m = (x >= 2.0) & (x < 3.0)
        out[m] = _bump_middle(3.0 - x[m])
        m = (x >= 3.0) & (x < 4.0)
        out[m] = _bump_edge(4.0 - x[m])
        return 1.5 * out

    return bump


@dataclass(frozen=True, eq=False)
class WarpProfile:
    """A warped-product geometry, sampled and in closed/dense form.

    phi_fn evaluates the warping factor anywhere on [0, s_max] to solver
    accuracy; accel_fn gives phi'' from the state (s, phi, phi'), scalar or
    array, which is what the level-set reparametrization integrates and
    scalar_curvature reads. The sampled curves phi and phi' cover a
    log-like grid for export and the capacity quadrature. vacuum marks
    the members with R = 0 everywhere, which must meet the equality case
    of the mass bound. end_s is where the vacuum end begins: beyond it,
    up to infinity, phi is the Schwarzschild slice of the total mass
    (s2 <= s_max/2 for a bump, 0 for Schwarzschild and the flat exterior).
    nfev and steps count the right-hand sides and
    accepted steps of the forward solve, summed over its pieces (0 for a
    closed-form family).
    """

    family_tag: str
    params: dict
    s_max: float
    s_grid: np.ndarray = field(repr=False)
    phi: SampledCurve = field(repr=False)
    dphi: SampledCurve = field(repr=False)
    phi_fn: Callable = field(repr=False)
    accel_fn: Callable = field(repr=False)
    vacuum: bool
    end_s: float = 0.0
    minimal_boundary: bool = True
    nfev: int = 0
    steps: int = 0

    @property
    def phi0(self) -> float:
        return float(self.phi.y[0])


def _expm1_grid(scale: float, s_max: float, n: int) -> np.ndarray:
    """n points on [0, s_max], spaced like a geometric grid shifted to 0."""
    theta = np.linspace(0.0, math.log1p(s_max / scale), n)
    s = scale * np.expm1(theta)
    s[0] = 0.0
    s[-1] = s_max
    return s


def _solve_family(
    tag: str,
    params: dict,
    phi0: float,
    accel,
    vacuum: bool,
    s_max: float,
    n: int,
    knots=(),
    end_s: float = 0.0,
) -> WarpProfile:
    """Integrate phi'' = accel forward from the minimal boundary phi(0) = phi0.

    accel may be non-smooth at the knots: each piece between them gets its
    own numerics.dop853 run (DOP853 at rtol = atol = 1e-12), so that no step
    straddles a knot (Hairer, Norsett & Wanner, Solving ODEs I, II.6). Each
    piece starts from the state the previous one's last step reached, and
    the pieces join into one DenseSolution, whose sol is phi_fn and whose
    nfev and steps the profile keeps.
    """

    def rhs(s, y):
        return [y[1], accel(s, y[0], y[1])]

    bounds = [0.0] + [k for k in knots if 0.0 < k < s_max] + [float(s_max)]
    y0, pieces = [phi0, 0.0], []
    for a, b in zip(bounds, bounds[1:]):
        try:
            piece = dop853(rhs, (a, b), y0, rtol=_GEOM_RTOL, atol=_GEOM_RTOL)
        except (RuntimeError, ArithmeticError) as exc:
            # Plain floats raise where numpy's would overflow to inf.
            raise RuntimeError(f"warping-factor integration failed: {exc}") from exc
        y0 = piece.y_end
        pieces.append(piece)
    dense = DenseSolution.join(pieces)

    s = _expm1_grid(phi0, s_max, n)
    phi_v, dphi_v = dense.sol(s)
    if np.any(phi_v <= 0.0):
        raise RuntimeError("warping factor lost positivity")
    if np.max(dphi_v) >= 1.0:
        raise ValueError("phi' reached 1; curvature perturbation too strong for this family")

    def phi_fn(x):
        return dense.sol(x)[0]

    return WarpProfile(
        family_tag=tag,
        params=params,
        s_max=float(s_max),
        s_grid=s,
        phi=SampledCurve(s, phi_v),
        dphi=SampledCurve(s, dphi_v),
        phi_fn=phi_fn,
        accel_fn=accel,
        vacuum=vacuum,
        end_s=float(end_s),
        nfev=dense.nfev,
        steps=dense.steps,
    )


def family_schwarzschild(
    m: float,
    s_max: float = DEFAULT_S_MAX,
    n: int = DEFAULT_N_S,
) -> WarpProfile:
    """Static vacuum slice of mass m > 0 in arclength gauge.

    phi'' = (1 - phi'^2)/(2 phi) from phi(0) = 2m, phi'(0) = 0; the first
    integral phi' = sqrt(1 - 2m/phi) is verified on the grid. Scalar
    curvature vanishes identically and the Hawking mass is exactly m on
    every sphere.
    """
    _check_finite(m=m, s_max=s_max)
    _check_int(n=n)
    if not m > 0.0:
        raise ValueError("mass must be positive")

    def accel(s, phi, dphi):
        return (1.0 - dphi**2) / (2.0 * phi)

    warp = _solve_family("schwarzschild", {"m": float(m)}, 2.0 * m, accel, True, s_max, n)
    first_integral = np.sqrt(1.0 - 2.0 * m / warp.phi.y[1:])
    if np.max(np.abs(warp.dphi.y[1:] - first_integral)) > 1e-9:
        raise RuntimeError("first integral of the vacuum equation violated")
    return warp


def family_bumped(
    m0: float,
    eps: float,
    s1: float = 2.0,
    s2: float = 6.0,
    s_max: float = DEFAULT_S_MAX,
    n: int = DEFAULT_N_S,
) -> WarpProfile:
    """Vacuum slice of base mass m0 with a compactly supported curvature bump.

    phi'' = (1 - phi'^2)/(2 phi) - (eps/(2 phi)) bump(s), which makes the
    scalar curvature exactly 2 eps bump(s)/phi^2: nonnegative for eps >= 0,
    dipping negative for eps < 0 (allowed here on purpose, so that the
    verification layer has hypothesis violations to detect). Outside the
    bump support the geometry is vacuum again with a larger Hawking mass.
    The forward solve is split at the bump's knots.
    """
    _check_finite(m0=m0, eps=eps, s1=s1, s2=s2, s_max=s_max)
    _check_int(n=n)
    if not m0 > 0.0:
        raise ValueError("base mass must be positive")
    if not 0.0 <= s1 < s2:
        raise ValueError("bump support must satisfy 0 <= s1 < s2")
    if s2 > 0.5 * s_max:
        raise ValueError("bump support must end well inside the grid")
    bump = spline_bump(s1, s2)

    def accel(s, phi, dphi):
        return (1.0 - dphi**2) / (2.0 * phi) - (eps / (2.0 * phi)) * bump(s)

    params = {"m0": float(m0), "eps": float(eps), "s1": float(s1), "s2": float(s2)}
    knots = [s1 + k * (s2 - s1) / 4.0 for k in range(5)]
    return _solve_family("bumped", params, 2.0 * m0, accel, float(eps) == 0.0, s_max, n, knots, s2)


def family_flat_exterior(
    s_max: float = DEFAULT_S_MAX,
    n: int = DEFAULT_N_S,
) -> WarpProfile:
    """Euclidean exterior of the unit sphere: phi = 1 + s.

    Flat, zero mass, and the boundary sphere is not minimal, so the
    level-set reparametrization refuses it; capacities and masses remain
    available and serve as exact anchors.
    """
    _check_finite(s_max=s_max)
    _check_int(n=n)
    s = _expm1_grid(1.0, s_max, n)
    phi_v = 1.0 + s

    def phi_fn(x):
        return 1.0 + np.asarray(x, dtype=float)

    def accel(s_, phi, dphi):
        return np.zeros_like(np.asarray(phi, dtype=float))

    return WarpProfile(
        family_tag="flat",
        params={},
        s_max=float(s_max),
        s_grid=s,
        phi=SampledCurve(s, phi_v),
        dphi=SampledCurve(s, np.ones_like(s)),
        phi_fn=phi_fn,
        accel_fn=accel,
        vacuum=True,
        minimal_boundary=False,
    )


def _hawking(phi: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """Hawking mass (phi/2)(1 - phi'^2) of the level spheres."""
    return 0.5 * phi * (1.0 - dphi**2)


def _curvature(phi: np.ndarray, dphi: np.ndarray, ddphi: np.ndarray) -> np.ndarray:
    """Scalar curvature R = 2(1 - phi'^2)/phi^2 - 4 phi''/phi."""
    return 2.0 * (1.0 - dphi**2) / phi**2 - 4.0 * ddphi / phi


def scalar_curvature(warp: WarpProfile) -> SampledCurve:
    """R on the sample grid, with phi'' from the family's accel_fn."""
    phi, dphi = warp.phi.y, warp.dphi.y
    return SampledCurve(warp.s_grid, _curvature(phi, dphi, warp.accel_fn(warp.s_grid, phi, dphi)))


def _capacity_tail(phi_max: float, m_end: float, kappa: float) -> float:
    """integral_{s_max}^inf phi^(-kappa) ds, using phi' = sqrt(1 - 2m/phi).

    Valid because every family is vacuum beyond warp.end_s <= s_max/2,
    which certify_case's end_is_reference gate checks pointwise along the
    flow. ds = dphi / sqrt(1 - 2m/phi)
    and x = 2m/phi turn the integral into (2m)^(1-kappa) B(x; kappa-1, 1/2)
    at x = 2m/phi_max; for m = 0 it is phi_max^(1-kappa)/(kappa-1).
    """
    a = kappa - 1.0
    if m_end == 0.0:
        return phi_max**-a / a
    x = 2.0 * m_end / phi_max
    return float((2.0 * m_end) ** -a * betainc(a, 0.5, x) * beta(a, 0.5))


def _flux_integral(warp: WarpProfile, p: float) -> np.ndarray:
    """integral_s^inf phi**(-2/(p-1)) ds on the s-grid; 1/C at s = 0."""
    kappa = 2.0 / (p - 1.0)

    def integrand(x):
        return np.asarray(warp.phi_fn(x), dtype=float) ** -kappa

    panels = panel_integrals(integrand, warp.s_grid)
    phi_max = float(warp.phi.y[-1])
    m_end = float(_hawking(warp.phi.y, warp.dphi.y)[-1])
    return right_cumulative(panels, _capacity_tail(phi_max, m_end, kappa))


def radial_p_harmonic(warp: WarpProfile, p: float) -> tuple[SampledCurve, float]:
    """Radial potential u with u = 1 on the boundary, u -> 0, and its C.

    u' = -C phi**(-kappa) with kappa = 2/(p-1); the cumulative integral is
    accumulated from the analytic tail inward so the decaying end keeps
    full relative precision. Returns (u over the s-grid, C). Raises
    ValueError when u(s_max) underflows a normal double (p near 1).
    """
    p = _check_p(p)
    integral = _flux_integral(warp, p)
    if not (integral[0] > 0.0 and integral[-1] / integral[0] >= sys.float_info.min):
        raise ValueError(f"p = {p:g}: u(s_max) underflows at s_max = {warp.s_max:g}")
    # x / x is exactly 1; x * (1/x) need not be, so u is not C * integral.
    u = integral / integral[0]
    return SampledCurve(warp.s_grid, u), 1.0 / integral[0]


def capacity_Cp(warp: WarpProfile, p: float) -> float:
    """Boundary p-capacity C_p = 4 pi C**(p-1), with C = 1/_flux_integral(0).

    This is the conserved flux 4 pi phi^2 |u'|^(p-1) of the potential
    through every level sphere: u' = -C phi**(-2/(p-1)) makes it
    4 pi C**(p-1) by construction. Near p = 1 it stays finite where
    radial_p_harmonic refuses, and raises ValueError when 1/C underflows.
    """
    p = _check_p(p)
    head = _flux_integral(warp, p)[0]
    if not head >= sys.float_info.min:
        raise ValueError(f"p = {p:g}: the capacity integral underflows at the boundary")
    return 4.0 * math.pi * (1.0 / head) ** (p - 1.0)


def masses(warp: WarpProfile) -> tuple[SampledCurve, float]:
    """(Hawking mass curve over s, total mass).

    The Hawking mass of the level spheres is (phi/2)(1 - phi'^2). The total
    mass is its value at s_max, exact under the vacuum-end assumption that
    _capacity_tail makes too: every family is vacuum beyond
    warp.end_s <= s_max/2, where the Hawking mass is constant.
    certify_case's end_is_reference gate reads that mass, with C_p,
    against the reference slice along the whole end.
    """
    hawk = SampledCurve(warp.s_grid, _hawking(warp.phi.y, warp.dphi.y))
    return hawk, float(hawk.y[-1])


@dataclass(frozen=True, eq=False)
class FlowProfile:
    """A geometry reparametrized by the level-set parameter t = (1-p) log u.

    All curves share the uniform t_grid abscissa. dWdt is the t-derivative
    of W taken from the state (s, phi, phi') in closed form, not by
    differencing samples. H_flux is the sphere integral of H |grad w| (with
    w = (1-p) log u), the quantity that couples the geometry to the
    monotone combinations.
    nfev and steps count the right-hand sides and accepted steps of the
    backward integration that produced the flow.
    """

    p: float
    t_grid: np.ndarray = field(repr=False)
    s_of_t: SampledCurve = field(repr=False)
    phi: SampledCurve = field(repr=False)
    u: SampledCurve = field(repr=False)
    W: SampledCurve = field(repr=False)
    dWdt: SampledCurve = field(repr=False)
    H: SampledCurve = field(repr=False)
    R: SampledCurve = field(repr=False)
    hawking: SampledCurve = field(repr=False)
    H_flux: SampledCurve = field(repr=False)
    Cp: float = 0.0
    adm: float = 0.0
    nfev: int = 0
    steps: int = 0

    @property
    def t_max(self) -> float:
        return float(self.t_grid[-1])

    @property
    def W0(self) -> float:
        return float(self.W.y[0])


def level_flow(
    warp: WarpProfile,
    p: float,
    n_t: int = DEFAULT_N_T,
) -> FlowProfile:
    """Reparametrize a geometry by the level sets of its radial potential.

    Requires a minimal boundary sphere (otherwise the boundary data of the
    monotone combinations do not apply, and the call refuses). The state
    (s, phi, phi') is integrated BACKWARD in t from the outer end: forward
    integration is exponentially unstable because neighboring potentials
    diverge from each other at rate kappa/(3-p) per unit t, while backward
    the same rate is a contraction. ds/dt is evaluated in log space to
    survive small p - 1. The integrator is numerics.dop853 (DOP853 at
    rtol = atol = 1e-12, step at most t_max / 2500), whose interpolants are
    sampled on the n_t-point t-grid in one pass; its nfev and steps are
    kept on the FlowProfile. The landing point is checked to hit the
    boundary (s = 0, phi = phi(0)) to tight absolute tolerance.
    """
    p = _check_p(p)
    if not warp.minimal_boundary:
        raise ValueError("level-set reparametrization requires a minimal boundary sphere")
    _check_int(n_t=n_t)
    if n_t < 16:
        raise ValueError("need at least 16 time samples")

    kappa = 2.0 / (p - 1.0)
    u_curve, C = radial_p_harmonic(warp, p)
    ln_C = math.log(C)
    u_end = float(u_curve.y[-1])
    t_max = (1.0 - p) * math.log(u_end)

    s_max = warp.s_max
    phi_max = float(warp.phi.y[-1])
    dphi_max = float(warp.dphi.y[-1])
    accel = warp.accel_fn

    def rhs(t, y):
        s, phi, dphi = y
        ds_dt = math.exp(-t / (p - 1.0) + kappa * math.log(phi) - ln_C) / (p - 1.0)
        return [ds_dt, dphi * ds_dt, accel(s, phi, dphi) * ds_dt]

    try:
        sol = dop853(
            rhs,
            (t_max, 0.0),
            [s_max, phi_max, dphi_max],
            rtol=_GEOM_RTOL,
            atol=_GEOM_RTOL,
            max_step=t_max / _MIN_FLOW_STEPS,
        )
    except RuntimeError as exc:
        raise RuntimeError(f"level-set reparametrization failed: {exc}") from exc
    s0, phi0, _ = sol.sol(0.0)
    if abs(s0) > 1e-6 or abs(phi0 - warp.phi0) > 1e-8 * warp.phi0:
        raise RuntimeError(
            f"backward pass missed the boundary (s(0) = {s0:g}, phi(0) = {phi0:g})"
        )

    t = np.linspace(0.0, t_max, n_t)
    s_t, phi_t, dphi_t = sol.sol(t)
    s_t[0] = 0.0
    if np.any(np.diff(s_t) <= 0.0):
        raise RuntimeError("level-set reparametrization: s(t) is not strictly increasing")

    du_over_u = -np.exp(ln_C - kappa * np.log(phi_t) + t / (p - 1.0))
    u_t = np.exp(-t / (p - 1.0))
    W = 4.0 * math.pi * (p - 1.0) ** 2 * (phi_t * du_over_u) ** 2
    dWds_over_W = 2.0 * ((1.0 - kappa) * dphi_t / phi_t - du_over_u)
    dtds = (1.0 - p) * du_over_u
    dWdt = W * dWds_over_W / dtds
    ddphi_t = accel(s_t, phi_t, dphi_t)
    H = 2.0 * dphi_t / phi_t
    H_flux = 4.0 * math.pi * phi_t**2 * H * (p - 1.0) * np.abs(du_over_u)

    _, adm = masses(warp)
    return FlowProfile(
        p=p,
        t_grid=t,
        s_of_t=SampledCurve(t, s_t),
        phi=SampledCurve(t, phi_t),
        u=SampledCurve(t, u_t),
        W=SampledCurve(t, W),
        dWdt=SampledCurve(t, dWdt),
        H=SampledCurve(t, H),
        R=SampledCurve(t, _curvature(phi_t, dphi_t, ddphi_t)),
        hawking=SampledCurve(t, _hawking(phi_t, dphi_t)),
        H_flux=SampledCurve(t, H_flux),
        Cp=4.0 * math.pi * C ** (p - 1.0),
        adm=adm,
        nfev=sol.nfev,
        steps=sol.steps,
    )


def __getattr__(name: str):
    # PEP 562: perfbench's tracer still lists warped.solve_ivp, so the name
    # resolves, and scipy.integrate loads, only when something asks for it.
    # This goes away with ROADMAP direction 1's retarget of the tracer.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

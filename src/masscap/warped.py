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
is closed-form on the vacuum end, and solved backward from there: a contraction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import beta, betainc

from .numerics import (
    Rhs,
    SampledCurve,
    _check_finite,
    _check_int,
    _check_p,
    _dop_kernel,
    _hermite,
    _log_newton,
    _rhs_function,
    _twin,
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
]

DEFAULT_S_MAX = 5.0e3
DEFAULT_N_S = 2048
DEFAULT_N_T = 32768

_GEOM_RTOL = 1e-12

# The level-set flow's integrator step is capped at t_max / _MIN_FLOW_STEPS.
# It steps [0, t_c] only (level_flow): the README's flows (Schwarzschild
# m = 2 and bumped (1, 0.1) at p = 1.2, 1.5, 1.8) take 290 to 415 steps of
# 15 right-hand sides, none rejected and all at the cap, so the cap and not
# the 1e-12 tolerance sets their cost. Their largest scaled error norm,
# FlowProfile.max_error (flow_max_error in a report), is at most 0.0418,
# below the 0.9**8 where the cap would stop binding. No check yet measures
# what a coarser cap would cost in accuracy.
_MIN_FLOW_STEPS = 2500

# level_flow's closed form needs x = 2 adm/phi at most this: Newton fails as x -> 1.
_END_X = 0.5


# phi'' of the vacuum slices as a function of (s, phi, phi'): every family's
# accel starts with it. phi' is squared by a product, which is the same
# double for a float and in numpy; phi'**2 is libm's pow for a float and
# numpy's square for an array, and those differ on about 0.1 % of doubles.
_VACUUM = "(1.0 - dphi * dphi) / (2.0 * phi)"

# The right-hand sides, written once as text (numerics.Rhs): {accel} is the
# family's scalar phi'', {consts} its constants. dop853 pastes each text into
# its generated step; a call of the Rhs runs the same text.
_FAMILY_TEXT = """\
def family(s, phi, dphi{consts}):
    return dphi, {accel}
"""
_FLOW_TEXT = """\
def flow(t, s, phi, dphi, *, pm1, kappa, ln_C{consts}):
    ds_dt = exp(-t / pm1 + kappa * log(phi) - ln_C) / pm1
    return ds_dt, dphi * ds_dt, ({accel}) * ds_dt
"""


class _Accel:
    """A family's phi'' from the state (s, phi, phi'), scalar or array.

    scalar is its text for a float s: an expression in s, phi, dphi and the
    names of consts. The right-hand sides of the family's solve and of
    level_flow paste it into their own texts. A call evaluates the family's
    text, (phi', phi''), and keeps phi'': its function for a float s, its
    array twin (numerics._twin) for any other s, which gives each element
    the scalar text's double. The family's solve runs the same two
    functions. The flow's text depends on the family only, so its function
    (which flow_rhs's Rhs calls), its generated run and its array twin,
    which evaluates the run's dense-output stages, are compiled here, with
    the family, once per process: before a fork, not per worker.
    """

    __slots__ = ("consts", "_family", "_scalar", "_array", "_flow")

    def __init__(self, scalar: str, **consts):
        self.consts = consts
        names = "".join(f", {name}" for name in consts)
        self._family = _FAMILY_TEXT.format(consts=f", *{names}" if names else "", accel=scalar)
        self._scalar = _rhs_function(self._family)
        self._array = _rhs_function(_twin(self._family))
        self._flow = _FLOW_TEXT.format(consts=names, accel=scalar)
        _rhs_function(self._flow)
        _dop_kernel(self._flow)
        _rhs_function(_twin(self._flow))

    def __call__(self, s, phi, dphi):
        family = self._scalar if isinstance(s, float) else self._array
        return family(s, phi, dphi, **self.consts)[1]

    def family_rhs(self) -> Rhs:
        """The right-hand side (phi', phi'') of the forward solve in s."""
        return Rhs(self._family, **self.consts)

    def flow_rhs(self, p: float, kappa: float, ln_C: float) -> Rhs:
        """The right-hand side d(s, phi, phi')/dt of level_flow."""
        return Rhs(self._flow, pm1=p - 1.0, kappa=kappa, ln_C=ln_C, **self.consts)


# The bump for a float s, as an expression in s, s1 and width = (s2 - s1)/4:
# the uniform cubic B-spline's pieces as products on x = (s - s1)/width,
# scaled by 1.5, and 0.0 outside 0 < x < 4. spline_bump runs it and its
# array twin, family_bumped's scalar text pastes it.
_BUMP = (
    "(1.5 * (x * x * x / 6.0) if 0.0 < (x := (s - s1) / width) < 1.0"
    " else 1.5 * ((-3.0 * (v := x - 1.0) * v * v + 3.0 * v * v + 3.0 * v + 1.0) / 6.0)"
    " if 1.0 <= x < 2.0"
    " else 1.5 * ((-3.0 * (v := 3.0 - x) * v * v + 3.0 * v * v + 3.0 * v + 1.0) / 6.0)"
    " if 2.0 <= x < 3.0"
    " else 1.5 * ((v := 4.0 - x) * v * v / 6.0) if 3.0 <= x < 4.0"
    " else 0.0)"
)


def spline_bump(s1: float, s2: float) -> Callable[[np.ndarray], np.ndarray]:
    """C^2 cubic bump supported on [s1, s2] with peak value 1.

    Not a public name: nothing in the package calls it, and it is kept
    while perfbench's tracer names it. The uniform cubic B-spline basis
    function, rescaled. Twice continuous differentiability keeps the
    curvature (which differentiates phi twice) continuous; the third
    derivative jumps at the five knots s1 + k (s2 - s1)/4, where
    family_bumped restarts its solve.

    A scalar argument runs the text _BUMP, which family_bumped's scalar
    phi'' also pastes in, and returns a float; an array runs the text's
    array twin (numerics._twin), so both agree bit for bit.
    """
    if not s2 > s1:
        raise ValueError("bump support needs s2 > s1")
    width = (s2 - s1) / 4.0
    text = f"def bump(s, *, s1, width):\n    return {_BUMP}\n"
    scalar, array = _rhs_function(text), _rhs_function(_twin(text))

    def bump(s):
        if isinstance(s, float) or np.ndim(s) == 0:
            return scalar(float(s), s1=s1, width=width)
        return array(np.asarray(s, dtype=float), s1=s1, width=width)

    return bump


@dataclass(frozen=True, eq=False)
class WarpProfile:
    """A warped-product geometry, sampled and in closed/dense form.

    phi_fn evaluates the warping factor anywhere on [0, s_max] to solver
    accuracy: the doubles of the forward solve's sol(x)[0], phi alone,
    without phi'. accel_fn gives phi'' from the state (s, phi, phi'),
    scalar or array, which is what the level-set reparametrization
    integrates and scalar_curvature reads. phi and dphi sample phi and phi'
    on s_grid, a log-like grid from 0 to s_max, for export and the capacity
    quadrature. vacuum
    marks the members with R = 0 everywhere, which must meet the equality
    case of the mass bound. end_s is where the vacuum end begins: beyond
    it, up to infinity, phi is the Schwarzschild slice of the total mass
    (s2 <= s_max/2 for a bump, 0 for Schwarzschild and the flat exterior).
    nfev and steps count the right-hand sides and accepted steps of the
    forward solve, summed over its pieces (0 for a closed-form family).
    """

    family_tag: str
    params: dict
    s_grid: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    dphi: np.ndarray = field(repr=False)
    phi_fn: Callable = field(repr=False)
    accel_fn: Callable = field(repr=False)
    vacuum: bool
    end_s: float = 0.0
    minimal_boundary: bool = True
    nfev: int = 0
    steps: int = 0

    @property
    def s_max(self) -> float:
        return float(self.s_grid[-1])

    @property
    def phi0(self) -> float:
        return float(self.phi[0])


def _check_grid(s_max: float, n: int) -> None:
    """Refuse, by name, an s-grid other than n >= 2 points on [0, s_max > 0]."""
    _check_finite(s_max=s_max)
    _check_int(n=n)
    if not s_max > 0.0:
        raise ValueError(f"s_max must be positive, got {s_max!r}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n!r}")


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

    The right-hand side (phi', phi'') is the text _FAMILY_TEXT with accel's
    scalar text pasted in (accel.family_rhs), which dop853's step runs
    inlined. accel may be non-smooth at the knots, so they are restart
    points of the one numerics.dop853 call (DOP853 at rtol = atol = 1e-12):
    each piece between them is a run of its own, and no step straddles a
    knot. The solution's nfev and steps, summed over the pieces, are kept on
    the profile, and phi_fn evaluates its phi component alone.
    """
    bounds = [0.0, *(k for k in knots if 0.0 < k < s_max), float(s_max)]
    try:
        dense = dop853(accel.family_rhs(), bounds, [phi0, 0.0], rtol=_GEOM_RTOL, atol=_GEOM_RTOL)
    except (RuntimeError, ArithmeticError) as exc:
        # Plain floats raise where numpy's would overflow to inf.
        raise RuntimeError(f"warping-factor integration failed: {exc}") from exc

    s = _expm1_grid(phi0, s_max, n)
    phi_v, dphi_v = dense.sol(s)
    for name, v in (("phi", phi_v), ("phi'", dphi_v)):
        if not np.all(np.isfinite(v)):
            raise RuntimeError(f"warping factor: {name} is not finite on the s-grid")
    if np.any(phi_v <= 0.0):
        raise RuntimeError("warping factor lost positivity")
    if np.max(dphi_v) >= 1.0:
        raise ValueError("phi' reached 1; curvature perturbation too strong for this family")

    def phi_fn(x):
        return dense._at(x, [0])[0]

    return WarpProfile(
        family_tag=tag,
        params=params,
        s_grid=s,
        phi=phi_v,
        dphi=dphi_v,
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
    _check_finite(m=m)
    _check_grid(s_max, n)
    if not m > 0.0:
        raise ValueError("mass must be positive")

    accel = _Accel(_VACUUM)
    warp = _solve_family("schwarzschild", {"m": float(m)}, 2.0 * m, accel, True, s_max, n)
    first_integral = np.sqrt(1.0 - 2.0 * m / warp.phi[1:])
    if np.max(np.abs(warp.dphi[1:] - first_integral)) > 1e-9:
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
    The forward solve is split at the bump's knots. phi'' is written once
    as text, which the right-hand sides of the solve and of level_flow
    paste in and which accel_fn runs for a float s: inside (s1, s2) it
    has spline_bump's scalar text _BUMP in place of bump(s), and outside,
    where bump(s) is exactly 0.0, it is the vacuum phi'' alone, so it
    gives bump's doubles without calling it. accel_fn's array path is the
    text's array twin, which gives the same doubles.
    """
    _check_finite(m0=m0, eps=eps, s1=s1, s2=s2)
    _check_grid(s_max, n)
    if not m0 > 0.0:
        raise ValueError("base mass must be positive")
    if not 0.0 <= s1 < s2:
        raise ValueError("bump support must satisfy 0 <= s1 < s2")
    if s2 > 0.5 * s_max:
        raise ValueError("bump support must end well inside the grid")
    # Outside (s1, s2) bump(s) is exactly 0.0: x = (s - s1)/width is <= 0
    # or, width = (s2 - s1)/4 being exact, >= 4. There the scalar text is
    # the vacuum phi'' V itself, which is V - finite * 0.0 bit for bit: V is
    # never -0.0, its numerator 1 - phi'^2 being +0.0 at worst and phi > 0.
    accel = _Accel(
        f"({_VACUUM} - (eps / (2.0 * phi)) * {_BUMP} if s1 < s < s2 else {_VACUUM})",
        eps=eps,
        s1=s1,
        s2=s2,
        width=(s2 - s1) / 4.0,
    )
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
    _check_grid(s_max, n)
    s = _expm1_grid(1.0, s_max, n)
    phi_v = 1.0 + s

    def phi_fn(x):
        return 1.0 + np.asarray(x, dtype=float)

    def accel(s_, phi, dphi):
        return np.zeros_like(np.asarray(phi, dtype=float))

    return WarpProfile(
        family_tag="flat",
        params={},
        s_grid=s,
        phi=phi_v,
        dphi=np.ones_like(s),
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


def scalar_curvature(warp: WarpProfile) -> np.ndarray:
    """R on warp.s_grid, with phi'' from the family's accel_fn."""
    phi, dphi = warp.phi, warp.dphi
    return _curvature(phi, dphi, warp.accel_fn(warp.s_grid, phi, dphi))


def _capacity_tail(phi_max: float, m_end: float, kappa: float) -> float:
    """integral_{s_max}^inf phi^(-kappa) ds, using phi' = sqrt(1 - 2m/phi).

    Valid because every family is vacuum beyond warp.end_s <= s_max/2,
    which certify_case's end gates check against the family solve.
    ds = dphi / sqrt(1 - 2m/phi) and x = 2m/phi turn the integral into
    (2m)^(1-kappa) B(x; kappa-1, 1/2) at x = 2m/phi_max; for m = 0 it is
    phi_max^(1-kappa)/(kappa-1).
    """
    a = kappa - 1.0
    if m_end == 0.0:
        return phi_max**-a / a
    x = 2.0 * m_end / phi_max
    return float((2.0 * m_end) ** -a * betainc(a, 0.5, x) * beta(a, 0.5))


def _flux_integral(warp: WarpProfile, p: float) -> np.ndarray:
    """integral_s^inf phi**(-2/(p-1)) ds on the s-grid; 1/C at s = 0.

    Beyond s_max it is _capacity_tail of the total mass of masses.
    """
    kappa = 2.0 / (p - 1.0)

    def integrand(x):
        return np.asarray(warp.phi_fn(x), dtype=float) ** -kappa

    panels = panel_integrals(integrand, warp.s_grid)
    return right_cumulative(panels, _capacity_tail(float(warp.phi[-1]), masses(warp)[1], kappa))


def radial_p_harmonic(warp: WarpProfile, p: float) -> tuple[np.ndarray, float]:
    """Radial potential u with u = 1 on the boundary, u -> 0, and its C.

    u' = -C phi**(-kappa) with kappa = 2/(p-1); the cumulative integral is
    accumulated from the analytic tail inward so the decaying end keeps
    full relative precision. Returns (u on warp.s_grid, C). Raises
    ValueError when u(s_max) underflows a normal double (p near 1).
    """
    p = _check_p(p)
    integral = _flux_integral(warp, p)
    if not (integral[0] > 0.0 and integral[-1] / integral[0] >= sys.float_info.min):
        raise ValueError(f"p = {p:g}: u(s_max) underflows at s_max = {warp.s_max:g}")
    # x / x is exactly 1; x * (1/x) need not be, so u is not C * integral.
    u = integral / integral[0]
    return u, 1.0 / integral[0]


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


def masses(warp: WarpProfile) -> tuple[np.ndarray, float]:
    """(Hawking mass on warp.s_grid, total mass).

    The Hawking mass of the level spheres is (phi/2)(1 - phi'^2). The total
    mass is its value at s_max, exact under the vacuum-end assumption:
    every family is vacuum beyond warp.end_s <= s_max/2, where the Hawking
    mass is constant. _flux_integral's tail and level_flow's closed-form end
    are those of this mass; certify_case's end_mass reads it against the
    Hawking mass where the end begins, independent of both.
    """
    hawk = _hawking(warp.phi, warp.dphi)
    return hawk, float(hawk[-1])


@dataclass(frozen=True, eq=False)
class FlowProfile:
    """A geometry reparametrized by the level-set parameter t = (1-p) log u.

    All curves share the uniform t_grid abscissa. dWdt is the t-derivative
    of W taken from the state (s, phi, phi') in closed form, not by
    differencing samples. nfev and steps count the right-hand sides and
    accepted steps of the backward integration over [0, t_c] (level_flow),
    and max_error is the largest scaled error norm of those steps
    (DenseSolution.max_error): below 0.9**8 the step cap, not the error
    norm, sets every step after the first capped one.
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
    Cp: float = 0.0
    adm: float = 0.0
    nfev: int = 0
    steps: int = 0
    max_error: float = 0.0

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
    monotone combinations do not apply, and the call refuses). Past end_s
    the flow is the Schwarzschild slice's closed form (DLMF 8.17), which the
    nodes t >= t_c solve by Newton's method; t_c is at phi(end_s), or 4 adm
    if larger, but not past s_max. From there (s, phi, phi') is integrated
    BACKWARD to t = 0, the direction in which neighboring potentials converge
    at rate kappa/(3-p) per unit t (forward, they diverge). ds/dt is
    evaluated in log space to survive small p - 1. The integrator is
    numerics.dop853 (DOP853 at rtol = atol = 1e-12, step at most t_max /
    2500), sampled at the nodes t < t_c in one pass; its nfev and steps are
    kept on the FlowProfile. Its right-hand side is the text _FLOW_TEXT with
    the family's scalar phi'' pasted in (accel_fn.flow_rhs), which dop853's
    step runs inlined; p - 1, kappa, ln C and the family's constants are
    passed to it per run. The landing is checked to hit the boundary (s = 0,
    phi = phi(0)) to tight absolute tolerance; a hand-off state of another
    mass than the family's heads for that mass's horizon instead.
    """
    p = _check_p(p)
    if not warp.minimal_boundary:
        raise ValueError("level-set reparametrization requires a minimal boundary sphere")
    _check_int(n_t=n_t)
    if n_t < 16:
        raise ValueError("need at least 16 time samples")

    kappa = 2.0 / (p - 1.0)
    u, C = radial_p_harmonic(warp, p)
    ln_C = math.log(C)
    t_max = (1.0 - p) * math.log(float(u[-1]))
    accel = warp.accel_fn
    _, adm = masses(warp)
    t = np.linspace(0.0, t_max, n_t)

    # On the vacuum end, x = 2 adm/phi gives t = (1-p) log(C (2 adm)^(1-kappa)
    # B(x; sigma, 1/2)) (_capacity_tail), t_of(x) = (t, dt/dlog x), and ds =
    # dphi/sqrt(1 - x), arc(x) = s up to a constant.
    sigma, m2 = kappa - 1.0, 2.0 * adm

    def t_of(x):
        B = beta(sigma, 0.5) * betainc(sigma, 0.5, x)
        t_x = (1.0 - p) * (ln_C - sigma * math.log(m2) + np.log(B))
        return t_x, (1.0 - p) * x**sigma / (np.sqrt(1.0 - x) * B)

    def arc(x):
        return m2 * (np.sqrt(1.0 - x) / x + np.log1p(np.sqrt(1.0 - x)) - 0.5 * np.log(x))

    # x_c is x(end_s) within [x(s_max), _END_X]. x(0) is 1 exactly (phi'(0) = 0):
    # 2 adm/phi0 would carry adm's rounding into s_c as its square root.
    x_e = min(m2 / float(warp.phi_fn(warp.end_s)), 1.0) if warp.end_s > 0.0 else 1.0
    x_max = m2 / float(warp.phi[-1])
    y = np.linspace(math.log(max(min(x_e, _END_X), x_max)), math.log(x_max), 1025)
    t_y, dt_dy = t_of(np.exp(y))
    x_c, t_c = math.exp(y[0]), float(t_y[0])
    s_c, k = warp.end_s + float(arc(x_c) - arc(x_e)), int(np.searchsorted(t, t_c))

    def step(x):  # Newton on log x at the nodes t >= t_c
        t_x, slope = t_of(x)
        return (t[k:] - t_x) / slope

    def vacuum_end():  # (s, phi, phi') there; its temporaries die before the n_t formulas
        x = _log_newton(step, np.exp(_hermite(t[k:], t_y, y, 1.0 / dt_dy)), "vacuum end")
        return s_c + arc(x) - arc(x_c), m2 / x, np.sqrt(1.0 - x)

    try:
        sol = dop853(
            accel.flow_rhs(p, kappa, ln_C),
            (t_c, 0.0),
            [s_c, m2 / x_c, math.sqrt(1.0 - x_c)],
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

    s_t, phi_t, dphi_t = (np.concatenate(pair) for pair in zip(sol.sol(t[:k]), vacuum_end()))
    s_t[0] = 0.0
    if np.any(np.diff(s_t) <= 0.0):
        raise RuntimeError("level-set reparametrization: s(t) is not strictly increasing")

    # First, while few arrays of n_t points are alive: the array twin of a
    # bump's phi'' holds all four pieces of the spline at once.
    ddphi_t = accel(s_t, phi_t, dphi_t)
    du_over_u = -np.exp(ln_C - kappa * np.log(phi_t) + t / (p - 1.0))
    u_t = np.exp(-t / (p - 1.0))
    W = 4.0 * math.pi * (p - 1.0) ** 2 * (phi_t * du_over_u) ** 2
    dWds_over_W = 2.0 * ((1.0 - kappa) * dphi_t / phi_t - du_over_u)
    dtds = (1.0 - p) * du_over_u
    dWdt = W * dWds_over_W / dtds
    H = 2.0 * dphi_t / phi_t

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
        Cp=4.0 * math.pi * C ** (p - 1.0),
        adm=adm,
        nfev=sol.nfev,
        steps=sol.steps,
        max_error=sol.max_error,
    )


def __getattr__(name: str):
    # PEP 562: perfbench's tracer still lists warped.solve_ivp, so the name
    # resolves, and scipy.integrate loads, only when something asks for it.
    # This goes away with ROADMAP direction 1's retarget of the tracer.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

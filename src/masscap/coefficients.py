"""Coefficient functions of the monotone combinations, reconstructed on the
reference slice.

Writing s for 3 - p, each monotone combination has the shape

    Q(t) = 4 pi s^2 f(t) + g(t) W(t) + (p-1) s h(t) dW/dt,

where the triple (f, g, h) solves, in the radial variable of the reference
slice,

    dg/dr = a(r) h,    dh/dr = b(r) g + c(r) h,    df/dt = h,

with a, b, c assembled from the reference profile. Two solutions matter:

* the decaying one, which vanishes at infinity like r**(-s/(p-1)); it is
  seeded at the outer radius from its two-term descending series and
  integrated inward (its stable direction), and
* the growing one, which grows linearly; it is integrated outward from
  g = -1, h = 0.01 at the boundary, then rescaled so that h ~ r/s + 1, with
  the additive constant of f fixed by the exponential-map normalization.

On the reference slice both combinations are exactly constant (the decaying
one is identically zero); on a general geometry with nonnegative scalar
curvature they are monotone, which is what the verify module certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .frobenius import InfinitySingularODE, series_coefficients
from .numerics import (
    PowerTailFit,
    SampledCurve,
    fit_power_tail,
    integrate_linear_system,
    stencil_derivative,
)
from .schwarzschild import ModelGeometry

__all__ = [
    "CoefficientSolution",
    "growth_ode",
    "model_constancy",
    "perfect_square_residual",
    "solve_decaying",
    "solve_growing",
    "system_residual",
]


def growth_ode(p: float) -> InfinitySingularODE:
    """Expansion at infinity of the second-order reduction for g.

    Eliminating h from the pair system leaves g'' + P(r) g' + Q(r) g = 0
    with P = sigma/r + p2/r^2 + ..., Q = -sigma/r^2 + q3/r^3 + ...,
    sigma = (3-p)/(p-1). Only the listed orders are exact (deeper ones
    inherit the truncation of a, b, c), so series are limited to one
    coefficient. The indicial roots are 1 (growing) and -sigma (decaying).
    """
    if not 1.0 < p < 2.0:
        raise ValueError(f"p must lie in (1, 2), got {p}")
    s = 3.0 - p
    sigma = s / (p - 1.0)
    p2 = 5.0 - p - s**2 / (p - 1.0)
    q3 = 2.0 * s**2 / (p - 1.0)
    return InfinitySingularODE((sigma, p2), (-sigma, q3), p_order=2, q_order=3)


def _abc(model: ModelGeometry, r):
    """(a, b, c, dr/dt) of the pair system at radii r, from one level_data call.

    a = [ (p-1)(5-p)/4 * (dW/dt)^2 / W^2 - 1 ] / (dr/dt)
    b = -1 / ((p-1)(3-p) dr/dt)
    c = 2(p-2) / ((p-1)(3-p) dr/dt) - (5-p)/(2(3-p)W) * dW/dr

    With these choices the pair system is the radial form of the coupled
    first-order conditions that make Q constant on the reference slice, and
    a + (dr/dt)^-1 >= 0 pointwise (the perfect-square mechanism).
    """
    p = model.p
    s = 3.0 - p
    ch = (p - 1.0) * (5.0 - p) / 4.0
    d = model.level_data(r)
    a = (ch * (d.dWdt / d.W) ** 2 - 1.0) / d.drdt
    b = -1.0 / ((p - 1.0) * s * d.drdt)
    c = 2.0 * (p - 2.0) / ((p - 1.0) * s * d.drdt) - (5.0 - p) / (2.0 * s * d.W) * d.dWdr
    return a, b, c, d.drdt


@dataclass(frozen=True)
class CoefficientSolution:
    """One flavor of the coefficient triple on the reference slice.

    Curves are sampled over r on the model grid; t_samples carries the
    matching level-set parameter. Tail fits allow evaluation slightly past
    the grid through the asymptotic forms; fgh_at_t is the interface the
    verify module uses to carry the triple onto a foreign geometry's
    t-range.
    """

    flavor: str
    p: float
    g_curve: SampledCurve = field(repr=False)
    h_curve: SampledCurve = field(repr=False)
    f_curve: SampledCurve = field(repr=False)
    t_samples: np.ndarray = field(repr=False)
    tail_g: PowerTailFit = field(repr=False)
    tail_h: PowerTailFit = field(repr=False)
    tail_f: PowerTailFit | None = field(repr=False, default=None)
    c1: float | None = None
    q: float | None = None
    c_tilde: float = 0.0
    _f_spline: CubicSpline = field(default=None, repr=False)
    _g_spline: CubicSpline = field(default=None, repr=False)
    _h_spline: CubicSpline = field(default=None, repr=False)

    @property
    def t_max(self) -> float:
        return float(self.t_samples[-1])

    @property
    def r_max(self) -> float:
        return float(self.g_curve.x[-1])

    @property
    def s(self) -> float:
        return 3.0 - self.p

    def boundary_values(self) -> tuple[float, float, float]:
        """(f, g, h) at t = 0."""
        return float(self.f_curve.y[0]), float(self.g_curve.y[0]), float(self.h_curve.y[0])

    def fgh_at_t(self, t):
        """(f, g, h) at level-set parameters t >= 0.

        Inside the sampled range this is cubic-spline interpolation in t.
        Past it, the fitted asymptotic forms take over, with the radius
        recovered from the exponential map r(t) ~ c_tilde e^(t/s) - s; they
        are trusted for one extra decade of radius, beyond which the query
        raises.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t_samples[0] - 1e-12):
            raise ValueError("t below the sampled range")
        inside = t <= self.t_max
        f = np.empty_like(t)
        g = np.empty_like(t)
        h = np.empty_like(t)
        if np.any(inside):
            ti = t[inside]
            f[inside] = self._f_spline(ti)
            g[inside] = self._g_spline(ti)
            h[inside] = self._h_spline(ti)
        if np.any(~inside):
            te = t[~inside]
            s = self.s
            r = self.c_tilde * np.exp(te / s) - s
            if np.any(r > 10.0 * self.r_max):
                raise ValueError(
                    "t beyond the validity of the asymptotic extension "
                    f"(radius past 10 * {self.r_max:g})"
                )
            if self.flavor == "decaying":
                sigma = s / (self.p - 1.0)
                g[~inside] = self.tail_g.c0 * r**-sigma * (1.0 + self.tail_g.c1 / r)
                h[~inside] = self.tail_h.c0 * r**-sigma * (1.0 + self.tail_h.c1 / r)
                f[~inside] = self.tail_f.c0 * r**-sigma * (1.0 + self.tail_f.c1 / r)
            else:
                g[~inside] = self.tail_g.c0 * r * (1.0 + self.tail_g.c1 / r)
                h[~inside] = self.tail_h.c0 * r * (1.0 + self.tail_h.c1 / r)
                f[~inside] = self.c_tilde * np.exp(te / s) + s
        return f, g, h


def _pair_rhs(model: ModelGeometry) -> Callable[[float], np.ndarray]:
    def rhs(r):
        a, b, c, drdt = _abc(model, r)
        return np.array([[0.0, a, 0.0], [b, c, 0.0], [0.0, 1.0 / drdt, 0.0]])

    return rhs


def _finish_solution(model, flavor, g, h, f, tails, c1=None, q=None) -> CoefficientSolution:
    t = model.t_of_r.y.copy()
    return CoefficientSolution(
        flavor=flavor,
        p=model.p,
        g_curve=g,
        h_curve=h,
        f_curve=f,
        t_samples=t,
        tail_g=tails[0],
        tail_h=tails[1],
        tail_f=tails[2],
        c1=c1,
        q=q,
        c_tilde=model.c_tilde,
        _f_spline=CubicSpline(t, f.y),
        _g_spline=CubicSpline(t, g.y),
        _h_spline=CubicSpline(t, h.y),
    )


def _grid_error(model: ModelGeometry, exc: ValueError) -> ValueError:
    """A solve's fit failure, prefixed with the exponent and the grid."""
    return ValueError(f"p = {model.p:g}, R_max = {model.R_max:g}, n = {model.r_grid.size}: {exc}")


def solve_decaying(model: ModelGeometry) -> CoefficientSolution:
    """The coefficient triple that vanishes at infinity.

    Seeded at R_max from the two-term descending series of the second-order
    reduction (the + orientation, so that h > 0) and integrated inward,
    which is the stable direction for this flavor. f is included as a third
    component with its analytic tail value -R_max**(-sigma) as seed, so the
    whole triple comes out of one pass. Positivity of h and of dg/dt + h is
    checked on the full grid before returning, the latter against
    model.tol.slope_slack. A failed tail fit raises ValueError naming p and
    the grid.
    """
    p = model.p
    s = 3.0 - p
    sigma = s / (p - 1.0)
    R = model.R_max

    scale = R**-sigma
    # The system is linear, so integrate from a unit-normalized seed and
    # rescale afterwards: the raw tail value R**-sigma can sit dozens of
    # decades below the solver's absolute tolerance (54 at p = 1.2), where
    # the outer portion of the pass would be pure noise.
    b1p = series_coefficients(growth_ode(p), root=-sigma, n=1).coefficients[0]
    g_seed = 1.0 + b1p / R
    dg_seed = -sigma / R - (sigma + 1.0) * b1p / R**2
    a_R = _abc(model, R)[0]
    h_seed = float(dg_seed / a_R)
    if h_seed <= 0.0:
        raise RuntimeError("decaying seed produced h <= 0; orientation is broken")
    f_seed = -1.0

    g, h, f = integrate_linear_system(
        _pair_rhs(model),
        [g_seed, h_seed, f_seed],
        (1.0, R),
        direction="backward",
        grid=model.r_grid,
    )
    g = SampledCurve(g.x, g.y * scale)
    h = SampledCurve(h.x, h.y * scale)
    f = SampledCurve(f.x, f.y * scale)
    if np.any(h.y <= 0.0):
        raise RuntimeError("decaying solution lost positivity of h")
    a_grid, _, _, drdt = _abc(model, model.r_grid)
    dgdt_plus_h = h.y * (1.0 + a_grid * drdt)
    if np.min(dgdt_plus_h) < -model.tol.slope_slack * float(np.max(np.abs(h.y))):
        raise RuntimeError("decaying solution violates dg/dt + h >= 0")

    try:
        tails = tuple(fit_power_tail(curve, -sigma) for curve in (g, h, f))
    except ValueError as exc:
        raise _grid_error(model, exc) from exc
    return _finish_solution(model, "decaying", g, h, f, tails)


def solve_growing(model: ModelGeometry) -> CoefficientSolution:
    """The coefficient triple that grows linearly at infinity.

    Integrated outward from g = -1, h = 0.01, f = 0 at the boundary; any
    positive h(0) lands on the same ray up to the decaying admixture, which
    dies off like r**(-1-sigma) relatively. The result is normalized by the
    fitted growth rate c1 (so that h ~ r/(3-p) + 1), and f is shifted by q
    so that f - c_tilde e^(t/(3-p)) -> 3-p, the exponential-map
    normalization. A failed fit raises ValueError naming p and the grid.
    """
    p = model.p
    s = 3.0 - p
    r = model.r_grid
    t = model.t_of_r.y
    g, h, f = integrate_linear_system(
        _pair_rhs(model),
        [-1.0, 0.01, 0.0],
        (1.0, model.R_max),
        direction="forward",
        grid=r,
    )
    if np.any(h.y <= 0.0) or np.any(g.y >= 0.0):
        raise RuntimeError("growing solution lost its sign pattern (h > 0, g < 0)")

    try:
        fit_h = fit_power_tail(h, 1.0)
        c1 = s * fit_h.c0
        if c1 <= 0.0:
            raise ValueError(f"fitted growth rate c1 = {c1:g} is not positive")
        if abs(fit_h.c1 / s - 1.0) > 1e-3:
            raise ValueError(f"subleading term of h ({fit_h.c1:g}) disagrees with 3-p = {s:g}")

        gs = SampledCurve(r, g.y / c1)
        hs = SampledCurve(r, h.y / c1)
        f_scaled = f.y / c1

        # Additive normalization of f: fit the limit of c_tilde e^(t/s) - f
        # over moderate radii, where the two O(r) terms have not yet lost
        # precision to cancellation.
        hi = min(1.0e5, model.R_max)
        stop = int(np.searchsorted(r, hi, side="right"))
        diff = model.c_tilde * np.exp(t[:stop] / s) - f_scaled[:stop]
        L = fit_power_tail(SampledCurve(r[:stop], diff), 0.0, window=100.0).c0
        q = s + L
        fs = SampledCurve(r, f_scaled + q)

        tails = (fit_power_tail(gs, 1.0), fit_power_tail(hs, 1.0), None)
    except ValueError as exc:
        raise _grid_error(model, exc) from exc
    return _finish_solution(model, "growing", gs, hs, fs, tails, c1=c1, q=q)


def _native_t_derivative(
    values: np.ndarray, model: ModelGeometry, drdt: np.ndarray
) -> np.ndarray:
    """d(values)/dt on the model's own grid, O(h^6) in log r.

    The sampled solution is differentiated where it lives: the geometric
    r-grid is uniform in log r, so a high-order stencil applies directly
    and no resampling spline caps the accuracy. The chain rule converts
    through dt = (d log r) * r / (dr/dt), with dr/dt sampled on the grid.
    """
    x = np.log(model.r_grid)
    dvdx = stencil_derivative(values, float(x[1] - x[0]), order=6)
    return dvdx * drdt / model.r_grid


def perfect_square_residual(
    sol: CoefficientSolution,
    model: ModelGeometry,
) -> SampledCurve:
    """Residual of the factorization relation that makes dQ/dt a square.

    The relation reads, with c_h = (p-1)(5-p)/4,

        g - 2(p-2) h + (p-1)(3-p) dh/dt + 2 c_h h (dW/dt)/W = 0,

    where dh/dt is taken by finite differences from the integrated solution
    (the coefficient construction satisfies it identically, so using the
    system's own right-hand side would check nothing). Returned sampled
    over t on the model grid.
    """
    p = sol.p
    s = 3.0 - p
    ch = (p - 1.0) * (5.0 - p) / 4.0
    g = sol.g_curve.y
    h = sol.h_curve.y
    data = model.level_data(model.r_grid)
    dhdt = _native_t_derivative(h, model, data.drdt)
    res = g - 2.0 * (p - 2.0) * h + (p - 1.0) * s * dhdt + 2.0 * ch * h * data.dWdt / data.W
    return SampledCurve(sol.t_samples, res)


def system_residual(sol: CoefficientSolution, model: ModelGeometry) -> float:
    """Max normalized residual of the pair system plus the factorization
    relation, with all derivatives taken by finite differences.

    Each equation's residual is normalized by the largest magnitude its
    terms reach on the grid, so the result is a dimensionless defect
    comparable against Tolerances.accept_rel.
    """
    g = sol.g_curve.y
    h = sol.h_curve.y
    f = sol.f_curve.y
    a, b, c, drdt = _abc(model, model.r_grid)

    dgdt = _native_t_derivative(g, model, drdt)
    dhdt = _native_t_derivative(h, model, drdt)
    dfdt = _native_t_derivative(f, model, drdt)

    rhs_g = a * h * drdt
    rhs_h = (b * g + c * h) * drdt
    worst = 0.0
    for fd, rhs in ((dgdt, rhs_g), (dhdt, rhs_h), (dfdt, h)):
        scale = float(np.max(np.abs(fd) + np.abs(rhs)))
        worst = max(worst, float(np.max(np.abs(fd - rhs))) / scale)

    square = perfect_square_residual(sol, model)
    worst = max(worst, float(np.max(np.abs(square.y))) / float(np.max(np.abs(g))))
    return worst


def model_constancy(sol: CoefficientSolution, model: ModelGeometry) -> tuple[float, float]:
    """(Q(0), max deviation of Q from Q(0)) on the reference slice.

    The decaying flavor should give Q identically zero; the growing one a
    nonzero constant. Deviations measure the end-to-end numerical quality
    of the profile, the coefficient solve, and the normalizations at once.
    """
    p = sol.p
    s = 3.0 - p
    W = model.Ws_curve.y
    dWdt = model.dWs_curve.y
    Q = (
        4.0 * math.pi * s**2 * sol.f_curve.y
        + sol.g_curve.y * W
        + (p - 1.0) * s * sol.h_curve.y * dWdt
    )
    Q0 = float(Q[0])
    return Q0, float(np.max(np.abs(Q - Q0)))

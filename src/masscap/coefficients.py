"""Coefficient functions of the monotone combinations, reconstructed on the
reference slice.

Writing s for 3 - p, each monotone combination has the shape

    Q(t) = 4 pi s^2 f(t) + g(t) W(t) + (p-1) s h(t) dW/dt,

where the triple (f, g, h) solves, in the radial variable of the reference
slice,

    dg/dr = a(r) h,    dh/dr = b(r) g + c(r) h,    df/dt = h,

with b, c assembled from the reference profile (_bc) and

    a = [ (p-1)(5-p)/4 * (dW/dt)^2 / W^2 - 1 ] / (dr/dt),

so that a + (dr/dt)^-1 >= 0 pointwise (the perfect-square mechanism):
dg/dt + h = (p-1)(5-p)/4 h (dW/dt / W)^2. Two solutions matter:

* the decaying one, which vanishes at infinity like r**(-s/(p-1)); it has a
  closed form in the incomplete beta function (see solve_decaying), and
* the growing one, which grows linearly; with f = r + 1/r + 2s it is
  elementary, and the boundary seed g = -1, h = 0.01 adds a multiple of the
  decaying triple (see solve_growing).

Both are evaluated in closed form, on the model grid and at any level-set
parameter t whose radius the profile resolves. On the grid they read the
level data and the beta ratio I1 that the model keeps, and evaluate no
special function.

On the reference slice both combinations are exactly constant (the decaying
one is identically zero); on a general geometry with nonnegative scalar
curvature they are monotone, which is what the verify module certifies.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import betainc, betaincinv

from .numerics import SampledCurve
from .schwarzschild import LevelData, ModelGeometry, _beta_ratio_I1

__all__ = [
    "CoefficientSolution",
    "at_t",
    "model_constancy",
    "solve_decaying",
    "solve_growing",
]


def _bc(p: float, d: LevelData):
    """(b, c, dr/dt) of the pair system from the level data d at some radii.

    b = -1 / ((p-1)(3-p) dr/dt)
    c = 2(p-2) / ((p-1)(3-p) dr/dt) - (5-p)/(2(3-p)W) * dW/dr

    Both triples take g = (dh/dr - c h)/b from the second equation, so the
    first one, dg/dr = a h, is what makes Q constant on the reference slice
    (growing_constant and decaying_zero gate it).
    """
    s = 3.0 - p
    b = -1.0 / ((p - 1.0) * s * d.drdt)
    c = 2.0 * (p - 2.0) / ((p - 1.0) * s * d.drdt) - (5.0 - p) / (2.0 * s * d.W) * d.dWdr
    return b, c, d.drdt


@dataclass(frozen=True, eq=False)
class CoefficientSolution:
    """One flavor of the coefficient triple on the reference slice.

    Curves are sampled over r on the model grid, whose level-set parameters
    are model.t_of_r.y. beta is the multiple of the decaying triple in the
    growing one (0 for the decaying flavor). The module function at_t is
    the interface the verify module uses to carry triples, and the slice's
    W, onto a foreign geometry's t-range.
    """

    flavor: str
    model: ModelGeometry = field(repr=False)
    g_curve: SampledCurve = field(repr=False)
    h_curve: SampledCurve = field(repr=False)
    f_curve: SampledCurve = field(repr=False)
    beta: float = 0.0
    c1: float | None = None
    q: float | None = None

    @property
    def p(self) -> float:
        return self.model.p

    def boundary_values(self) -> tuple[float, float, float]:
        """(f, g, h) at t = 0."""
        return float(self.f_curve.y[0]), float(self.g_curve.y[0]), float(self.h_curve.y[0])

    @property
    def Q0(self) -> float:
        """Q on the reference slice: 8 pi s^3 + 16 pi s^2 - 16 pi s (s = 3 - p), 0 if decaying."""
        s = 3.0 - self.p
        growing = 8.0 * math.pi * s**3 + 16.0 * math.pi * s**2 - 16.0 * math.pi * s
        return growing if self.flavor == "growing" else 0.0


def at_t(t, *sols: CoefficientSolution) -> tuple:
    """(live, W_s, dW_s/dt, [(f, g, h) per sol]) at the level-set parameters t >= 0.

    The triples must share one model (ValueError otherwise), whose radii
    and level data they then share. Closed forms at the exact radius of
    each level set (_level_radii), from one model.level_data call: the
    decaying triple by _decaying_at_r, the growing one by _growing_at_r plus
    beta times the decaying one, and the reference slice's W and dW/dt.
    live marks the t whose radius is live; the arrays hold those t only,
    which for increasing t are a prefix.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < -1e-12):
        raise ValueError("t below the sampled range")
    model = sols[0].model
    _same_model(model, *sols)
    r, live = _level_radii(model, t)
    d = model.level_data(r)
    dec = _decaying_at_r(model, r, d, _beta_ratio_I1(model.p, r))
    triples = [
        tuple(x0 + sol.beta * x for x0, x in zip(_growing_at_r(model.p, r, d), dec))
        if sol.flavor == "growing" else dec
        for sol in sols
    ]
    return live, d.W, d.dWdt, triples


def _level_radii(model: ModelGeometry, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, live): the exact radii of the level sets t >= 0 that are live.

    The radius of a level set is x = betaincinv(sigma, sigma,
    e^(-t/(p-1)) I_1/2(sigma, sigma)), r = 1/x - 1. Below x = 1e-17, x comes
    from x^sigma = sigma B(sigma, sigma) e^(-t/(p-1)) I_1/2(sigma, sigma),
    taken in logarithms: there the O(x) term of I_x(sigma, sigma) (DLMF
    8.17.8) is below an ulp, while betaincinv returns nan for small
    arguments at some sigma (p = 1.27 to 1.57 with scipy 1.17). At t = 0,
    x is 1/2 by construction (u(1) = 1): betaincinv misses it by up to
    4.9e-8 at some p (p = 1.911 with scipy 1.17), while at t > 0 it is
    exact to a few ulps.
    live marks the t whose r**(-2/(p-1)) is a normal double (the bound
    model_profile puts on R_max); past that radius the profile data
    underflow. r holds the radii of the live t only. Reads only model.p.
    """
    p = model.p
    sigma = (3.0 - p) / (p - 1.0)
    half = betainc(sigma, sigma, 0.5)
    x = betaincinv(sigma, sigma, np.exp(-t / (p - 1.0)) * half)
    x[t == 0.0] = 0.5
    log_x = (math.log(sigma * beta_fn(sigma, sigma) * half) - t / (p - 1.0)) / sigma
    tail = log_x < math.log(1e-17)
    x[tail] = np.exp(log_x[tail])
    live = x > 1.0 / (1.0 + sys.float_info.min ** (-(p - 1.0) / 2.0))
    return 1.0 / x[live] - 1.0, live


def _decaying_at_r(model: ModelGeometry, r, d: LevelData, I1):
    """(f, g, h) of the decaying triple at radii r, in closed form.

    With sigma = (3-p)/(p-1), x = 1/(1+r), k = -sigma^2 (sigma+1)/(2C) and
    I_x the regularized incomplete beta function, let I0 = I_x(sigma, sigma)
    / (2 I_1/2(sigma, sigma)) = u/2, I1 = I_x(sigma+1, sigma) / (2
    I_1/2(sigma, sigma)) and D = I1 - 2x I0. Then

        f = 2k/(x(1-x)) [ (1-2x) D + (2/sigma) x(1-x) I0 ],

    which is k [u (r-1)^2/r + (2/sigma) u + (r^2-1) u'/sigma] rewritten with
    I_x(a, b) - I_x(a+1, b) = x^a (1-x)^b / (a B(a, b)) (DLMF 8.17.20), so
    that no O(r) terms cancel. h = f' dr/dt = A (u/u') K with K = 2D/x and
    A = -k(r+1)/((p-1) r^2); dK/dr = 2 I1 gives dh/dr by the product rule,
    and g = (dh/dr - c h)/b comes from the second equation of the pair
    system.
    d is the level data at r and I1 its ratio there (_beta_ratio_I1); I0 is
    taken as d.u/2, bit for bit the quotient above.
    """
    p = model.p
    sigma = (3.0 - p) / (p - 1.0)
    k = -(sigma**2) * (sigma + 1.0) / (2.0 * model.flux_constant)
    x = 1.0 / (1.0 + r)
    I0 = d.u / 2.0
    D = I1 - 2.0 * x * I0
    f = 2.0 * k / (x * (1.0 - x)) * ((1.0 - 2.0 * x) * D + (2.0 / sigma) * x * (1.0 - x) * I0)

    b, c, drdt = _bc(p, d)
    u_over_du = -(p - 1.0) * drdt
    K = 2.0 * D / x
    A = -k * (r + 1.0) / ((p - 1.0) * r**2)
    dA = -A * (r + 2.0) / (r * (r + 1.0))
    dlog_du = -(sigma + 1.0) / r + 2.0 * sigma / (r**2 + r)
    h = A * u_over_du * K
    # u/u' ~ r multiplies K and I1 first: the products dA K and A I1 alone
    # go subnormal at radii where g is still a normal double.
    dhdr = (
        dA * (K * u_over_du)
        + 2.0 * A * (I1 * u_over_du)
        + A * (1.0 - u_over_du * dlog_du) * K
    )
    g = (dhdr - c * h) / b
    return f, g, h


def solve_decaying(model: ModelGeometry) -> CoefficientSolution:
    """The coefficient triple that vanishes at infinity, in closed form.

    Normalized by f ~ -r**(-sigma) and g ~ r**(-sigma) at infinity, and
    evaluated exactly on the model grid and, through at_t, at any
    live t >= 0 (see _decaying_at_r for the formulas). Positivity of h is
    checked on the full grid before returning; with it dg/dt + h, which is
    (p-1)(5-p)/4 h (dW/dt / W)^2 by the pair system, is positive too.
    """
    r = model.r_grid
    f, g, h = _decaying_at_r(model, r, model.grid_data, model.grid_I1)
    if np.any(h <= 0.0):
        raise RuntimeError("decaying solution lost positivity of h")
    return CoefficientSolution(
        flavor="decaying",
        model=model,
        g_curve=SampledCurve(r, g),
        h_curve=SampledCurve(r, h),
        f_curve=SampledCurve(r, f),
    )


def _growing_at_r(p: float, r, d: LevelData):
    """(f, g, h) of the growing triple without decaying admixture, at radii r.

    f = r + 1/r + 2s with s = 3-p, and h = f' dr/dt with f' = (r-1)(r+1)/r^2
    written so that nothing cancels near r = 1. With
    d(dr/dt)/dr = -(1 + (p-1) dr/dt u''/u')/(p-1), the product rule gives
    dh/dr, and g = (dh/dr - c h)/b comes from the pair system. This is the
    decaying r-form with u = 1, u' = 0; since dr/dt = r/s + 1 + O(1/r) and
    c_tilde e^(t/s) = r + s + O(1/r), it already has h ~ r/s + 1 and
    f - c_tilde e^(t/s) -> s. d is the level data at r.
    """
    s = 3.0 - p
    sigma = s / (p - 1.0)
    b, c, drdt = _bc(p, d)
    df = (r - 1.0) * (r + 1.0) / r**2
    dlog_du = -(sigma + 1.0) / r + 2.0 * sigma / (r**2 + r)
    d_drdt = -(1.0 + (p - 1.0) * drdt * dlog_du) / (p - 1.0)
    h = df * drdt
    dhdr = 2.0 / r**2 * (drdt / r) + df * d_drdt
    return r + 1.0 / r + 2.0 * s, (dhdr - c * h) / b, h


def solve_growing(model: ModelGeometry) -> CoefficientSolution:
    """The coefficient triple that grows linearly at infinity, in closed form.

    It is the solution seeded with (g, h, f) = (-1, 0.01, 0) at the
    boundary, rescaled by c1 so that h ~ r/(3-p) + 1 and shifted by q so
    that f - c_tilde e^(t/(3-p)) -> 3-p. That solution is the triple of
    _growing_at_r, which has this normalization already, plus beta times
    the decaying one. The former's h vanishes at r = 1, so matching the seed
    gives

        c1 = -(1 + 0.01 g_dec(0)/h_dec(0)) / g_grow(0),
        beta = 0.01/(c1 h_dec(0)),

    and q = f(0). Nothing is fitted, and both triples come from the model's
    grid_data and grid_I1. The sign pattern h > 0, g < 0 is checked on the
    grid; at_t is exact at any t whose radius is live (see _level_radii).
    """
    r, d = model.r_grid, model.grid_data
    f0, g0, h0 = _growing_at_r(model.p, r, d)
    fd, gd, hd = _decaying_at_r(model, r, d, model.grid_I1)
    c1 = float(-(1.0 + 0.01 * gd[0] / hd[0]) / g0[0])
    beta = float(0.01 / (c1 * hd[0]))
    f, g, h = f0 + beta * fd, g0 + beta * gd, h0 + beta * hd
    if np.any(h <= 0.0) or np.any(g >= 0.0):
        raise RuntimeError("growing solution lost its sign pattern (h > 0, g < 0)")
    return CoefficientSolution(
        flavor="growing",
        model=model,
        g_curve=SampledCurve(r, g),
        h_curve=SampledCurve(r, h),
        f_curve=SampledCurve(r, f),
        beta=beta,
        c1=c1,
        q=float(f[0]),
    )


def _same_model(model: ModelGeometry, *sols: CoefficientSolution) -> None:
    """Raise ValueError unless every triple was solved on this very model."""
    for sol in sols:
        if sol.model is not model:
            raise ValueError(
                f"the {sol.flavor} triple was solved on another reference model "
                f"(p = {sol.p:g}) than the one given (p = {model.p:g})"
            )


def _q_terms(p: float, f, g, h, W, dWdt) -> tuple:
    """The three terms of Q = 4 pi (3-p)^2 f + g W + (p-1)(3-p) h dW/dt.

    Callers add them left to right; reference_checks also reads them one by
    one, to scale the decaying Q against its largest term.
    """
    s = 3.0 - p
    return 4.0 * math.pi * s**2 * f, g * W, (p - 1.0) * s * h * dWdt


def model_constancy(sol: CoefficientSolution, model: ModelGeometry) -> tuple[float, float]:
    """(Q(0), max deviation of Q from Q(0)) on the reference slice.

    The decaying flavor should give Q identically zero; the growing one a
    nonzero constant. Deviations measure the end-to-end numerical quality
    of the profile, the coefficient solve, and the normalizations at once.
    """
    _same_model(model, sol)
    f_term, g_term, h_term = _q_terms(
        sol.p, sol.f_curve.y, sol.g_curve.y, sol.h_curve.y, model.Ws_curve.y, model.dWs_curve.y
    )
    Q = f_term + g_term + h_term
    Q0 = float(Q[0])
    return Q0, float(np.max(np.abs(Q - Q0)))

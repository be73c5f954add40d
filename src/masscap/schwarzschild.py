"""Reference geometry: the spatial Schwarzschild slice of mass 2 in
isotropic coordinates, metric (1 + 1/r)^4 * delta on {r >= 1}.

The boundary sphere r = 1 is minimal, and the radial p-harmonic potential
(1 < p < 2) with u = 1 on the boundary and u -> 0 at infinity solves a
first-order reduction in closed form:

    u'(r) = -C * r**(-kappa) * (1 + 1/r)**(-beta),
    kappa = 2/(p-1),   beta = 2*(3-p)/(p-1),

with C fixed by u(1) = 1. The substitution x = 1/(1+r) turns the integral
of u' into an incomplete beta function (DLMF 8.17): with
sigma = (3-p)/(p-1),

    u(r) = I_x(sigma, sigma) / I_1/2(sigma, sigma),   C = 2 / B(sigma, sigma),

and u ~ c_fit r**(-sigma) at infinity with c_fit = C/sigma. Along the
level-set parameter t = (1-p) log u this is the exponential map
r ~ c_tilde e^(t/(3-p)) with c_tilde = c_fit**(1/sigma). Everything this
module exports - t, the sphere-integrated gradient square W(t), the
boundary capacity, and the two tail normalization constants - is derived
from these formulas. The mass-2 member is singled out because its boundary
data (W(0), dW/dt(0)) and capacity are the sharp constants against which
every other geometry is compared.

The grid keeps r**(-kappa) a normal double, which bounds R_max by
DBL_MIN**(-1/kappa): about 4.9e7 at p = 1.05, and just below the default
1e6 at p = 1.039.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import betainc

from .numerics import SampledCurve, Tolerances, _check_finite, _check_int, _check_p

__all__ = [
    "DEFAULT_N_R",
    "DEFAULT_R_MAX",
    "LevelData",
    "ModelGeometry",
    "flux_constant",
    "model_profile",
]

DEFAULT_R_MAX = 1.0e6
DEFAULT_N_R = 4096


def _exponents(p: float) -> tuple[float, float, float]:
    """(s, kappa, beta) shorthand for 3-p, 2/(p-1), 2(3-p)/(p-1)."""
    s = 3.0 - p
    kappa = 2.0 / (p - 1.0)
    beta = 2.0 * s / (p - 1.0)
    return s, kappa, beta


def _potential(p: float, r):
    """u(r) = I_x(sigma, sigma) / I_1/2(sigma, sigma) with x = 1/(1+r).

    Dividing by the computed I_1/2 rather than multiplying by 2 makes
    u(1) == 1 exactly.
    """
    sigma = (3.0 - p) / (p - 1.0)
    return betainc(sigma, sigma, 1.0 / (1.0 + r)) / betainc(sigma, sigma, 0.5)


def _du(p: float, C: float, r):
    _, kappa, beta = _exponents(p)
    return -C * r**-kappa * (1.0 + 1.0 / r) ** -beta


class LevelData(NamedTuple):
    """Pointwise model data at radius r, used to assemble coefficient ODEs."""

    u: np.ndarray
    du: np.ndarray
    W: np.ndarray
    dWdr: np.ndarray
    drdt: np.ndarray
    dWdt: np.ndarray


def _level_data(p: float, C: float, r) -> LevelData:
    _, kappa, beta = _exponents(p)
    u = _potential(p, r)
    du = _du(p, C, r)
    W = 4.0 * math.pi * (p - 1.0) ** 2 * r**2 * (du / u) ** 2
    dlog_du = -kappa / r + beta / (r**2 + r)
    dWdr = 2.0 * W * (1.0 / r + dlog_du - du / u)
    drdt = -u / ((p - 1.0) * du)
    return LevelData(u=u, du=du, W=W, dWdr=dWdr, drdt=drdt, dWdt=dWdr * drdt)


def _beta_ratio_I1(p: float, r):
    """I1 = I_x(sigma+1, sigma) / (2 I_1/2(sigma, sigma)) at x = 1/(1+r)."""
    sigma = (3.0 - p) / (p - 1.0)
    return betainc(sigma + 1.0, sigma, 1.0 / (1.0 + r)) / (2.0 * betainc(sigma, sigma, 0.5))


def flux_constant(p: float) -> float:
    """Normalization constant C of the radial potential on the reference slice.

    C = 1 / integral_1^inf r^-kappa (1+1/r)^-beta dr = 2 / B(sigma, sigma), so
    that u(1) = 1. The integrand's conserved flux makes C**(p-1)
    proportional to the boundary capacity. At p = 1.5 the integral is
    exactly 1/60.
    """
    p = _check_p(p)
    sigma = (3.0 - p) / (p - 1.0)
    return 2.0 / float(beta_fn(sigma, sigma))


@dataclass(frozen=True, eq=False)
class ModelGeometry:
    """The reference slice sampled on a geometric r-grid [1, R_max].

    Immutable after construction; compared and hashed by identity. Curves
    over r: u, du, t; curves over t: W, dW/dt. grid_data (level data) and
    grid_I1 (_beta_ratio_I1) on r_grid are the one grid evaluation of the
    slice's special functions, which the coefficient solves read. The
    closed forms of u and du give pointwise data off the grid via
    level_data(), as accurate as on the grid. The boundary data are
    Ws_curve.y[0] and dWs_curve.y[0]; since u(1) = 1, the minimal boundary
    gives dW_s/dt(0) = 2 W_s(0)/(p-1) by construction
    (tests/test_schwarzschild.py::test_minimal_boundary_relation).
    """

    p: float
    flux_constant: float
    Kp: float
    r_grid: np.ndarray = field(repr=False)
    u_curve: SampledCurve = field(repr=False)
    du_curve: SampledCurve = field(repr=False)
    t_of_r: SampledCurve = field(repr=False)
    Ws_curve: SampledCurve = field(repr=False)
    dWs_curve: SampledCurve = field(repr=False)
    grid_data: LevelData = field(repr=False)
    grid_I1: np.ndarray = field(repr=False)
    tol: Tolerances = field(default_factory=Tolerances, repr=False)

    @property
    def c_fit(self) -> float:
        """C/sigma, the leading coefficient of u ~ c_fit r**(-sigma)."""
        return self.flux_constant / ((3.0 - self.p) / (self.p - 1.0))

    @property
    def c_tilde(self) -> float:
        """c_fit**(1/sigma), so that r ~ c_tilde e^(t/(3-p))."""
        return self.c_fit ** (1.0 / ((3.0 - self.p) / (self.p - 1.0)))

    @property
    def R_max(self) -> float:
        return float(self.r_grid[-1])

    @property
    def t_max(self) -> float:
        return float(self.t_of_r.y[-1])

    def level_data(self, r) -> LevelData:
        """u, du, W, dW/dr, dr/dt, dW/dt at arbitrary radii r >= 1."""
        return _level_data(self.p, self.flux_constant, np.asarray(r, dtype=float))


def model_profile(
    p: float,
    R_max: float = DEFAULT_R_MAX,
    n: int = DEFAULT_N_R,
    tol: Tolerances | None = None,
) -> ModelGeometry:
    """Build the reference model on a geometric grid of n radii in [1, R_max].

    u, du, C, the level data and I1 are the closed forms of the module
    docstring and of _beta_ratio_I1, evaluated once on the grid; the
    decaying tail keeps full relative precision because betainc does.
    Raises ValueError when R_max**(-kappa) is not a normal double: past that
    radius u' and the level_data built from it underflow. tol (default
    Tolerances()) becomes model.tol, the one error budget of every solve and
    check on this model.
    """
    p = _check_p(p)
    _check_finite(R_max=R_max)
    _check_int(n=n)
    if R_max < 1e4:
        raise ValueError("R_max must be at least 1e4 for the tail expansions to hold")
    if n < 64:
        raise ValueError("need at least 64 grid points")
    _, kappa, _ = _exponents(p)
    if float(R_max) ** -kappa < sys.float_info.min:
        limit = sys.float_info.min ** (-1.0 / kappa)
        digits = 10.0 ** (math.floor(math.log10(limit)) - 2)
        raise ValueError(
            f"p = {p:g}: R_max**(-2/(p-1)) falls below the smallest normal double "
            f"at R_max = {R_max:g}; the largest admissible R_max at this p is "
            f"{math.floor(limit / digits) * digits:.3g}"
        )

    r = np.geomspace(1.0, R_max, n)
    C = flux_constant(p)
    d = _level_data(p, C, r)
    t = (1.0 - p) * np.log(d.u)
    t[0] = 0.0  # u[0] is exactly 1, so t[0] is +-0; clear the sign

    Kp = 4.0 * math.pi * C ** (p - 1.0)

    model = ModelGeometry(
        p=p,
        flux_constant=C,
        Kp=Kp,
        r_grid=r,
        u_curve=SampledCurve(r, d.u),
        du_curve=SampledCurve(r, d.du),
        t_of_r=SampledCurve(r, t),
        Ws_curve=SampledCurve(t, d.W),
        dWs_curve=SampledCurve(t, d.dWdt),
        grid_data=d,
        grid_I1=_beta_ratio_I1(p, r),
        tol=tol or Tolerances(),
    )
    return model

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

and u ~ c_fit r**(-sigma) at infinity with c_fit = C/sigma. The numerator
is evaluated as I_x(sigma+1, sigma) + x^sigma (1-x)^sigma / (sigma B(sigma,
sigma)) (DLMF 8.17.20), so that one betainc call per evaluation gives both
u and the beta ratio I1 of the decaying coefficient triple. Along the
level-set parameter t = (1-p) log u this is the exponential map
r ~ c_tilde e^(t/(3-p)) with c_tilde = c_fit**(1/sigma), and its exact
inverse t -> r is betaincinv (ModelGeometry.level_radii). Everything this
module exports - t, the sphere-integrated gradient square W(t), the
boundary capacity, and the two tail normalization constants - is derived
from these formulas; the model keeps its samples as plain arrays on its
r-grid. The mass-2 member is singled out because its boundary data (W(0),
dW/dt(0)) and capacity are the sharp constants against which every other
geometry is compared.

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
from scipy.special import betainc, betaincinv

from .numerics import Tolerances, _check_finite, _check_int, _check_p

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


def _du(p: float, C: float, r):
    _, kappa, beta = _exponents(p)
    return -C * r**-kappa * (1.0 + 1.0 / r) ** -beta


class LevelData(NamedTuple):
    """Pointwise model data at radius r, with the decaying triple's beta ratio I1."""

    u: np.ndarray
    du: np.ndarray
    W: np.ndarray
    dWdr: np.ndarray
    drdt: np.ndarray
    dWdt: np.ndarray
    I1: np.ndarray


def _beta_numerators(sigma: float, x):
    """(I_x(sigma+1, sigma), I_x(sigma, sigma)) by DLMF 8.17.20: two positive terms."""
    B1 = betainc(sigma + 1.0, sigma, x)
    # np.power rather than **, so that a scalar x takes the array path too.
    term = np.power(x, sigma) * np.power(1.0 - x, sigma) / (sigma * beta_fn(sigma, sigma))
    return B1, B1 + term


def _level_data(p: float, C: float, r) -> LevelData:
    _, kappa, beta = _exponents(p)
    sigma = (3.0 - p) / (p - 1.0)
    B1, B0 = _beta_numerators(sigma, 1.0 / (1.0 + r))
    # The same path at x = 1/2 (r = 1), so that u(1) == 1 exactly.
    half = _beta_numerators(sigma, np.array([0.5]))[1][0]
    u = B0 / half
    du = _du(p, C, r)
    W = 4.0 * math.pi * (p - 1.0) ** 2 * r**2 * (du / u) ** 2
    dlog_du = -kappa / r + beta / (r**2 + r)
    dWdr = 2.0 * W * (1.0 / r + dlog_du - du / u)
    drdt = -u / ((p - 1.0) * du)
    return LevelData(
        u=u, du=du, W=W, dWdr=dWdr, drdt=drdt, dWdt=dWdr * drdt, I1=B1 / (2.0 * half)
    )


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

    Immutable after construction; compared and hashed by identity.
    grid_data holds the level data on r_grid (u, du, W, dW/dr, dr/dt,
    dW/dt and the beta ratio I1): the one grid evaluation of the slice's
    special functions, which the coefficient solves read. t_grid holds the
    level-set parameters of r_grid, strictly increasing from 0. The closed
    forms of u and du give pointwise data off the grid via level_data(), as
    accurate as on the grid, and level_radii() inverts t to r. The boundary
    data are grid_data.W[0] and grid_data.dWdt[0]; since u(1) = 1, the
    minimal boundary gives dW_s/dt(0) = 2 W_s(0)/(p-1) by construction
    (tests/test_schwarzschild.py::test_minimal_boundary_relation).
    """

    p: float
    flux_constant: float
    Kp: float
    r_grid: np.ndarray = field(repr=False)
    t_grid: np.ndarray = field(repr=False)
    grid_data: LevelData = field(repr=False)
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
        return float(self.t_grid[-1])

    def level_data(self, r) -> LevelData:
        """u, du, W, dW/dr, dr/dt, dW/dt at arbitrary radii r >= 1."""
        return _level_data(self.p, self.flux_constant, np.asarray(r, dtype=float))

    def level_radii(self, t) -> tuple[np.ndarray, np.ndarray]:
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
        underflow. r holds the radii of the live t only. A scalar t is taken
        as one level set, and r and live are 1-d. Reads only self.p.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p = self.p
        sigma = (3.0 - p) / (p - 1.0)
        half = betainc(sigma, sigma, 0.5)
        x = betaincinv(sigma, sigma, np.exp(-t / (p - 1.0)) * half)
        x[t == 0.0] = 0.5
        log_x = (math.log(sigma * beta_fn(sigma, sigma) * half) - t / (p - 1.0)) / sigma
        tail = log_x < math.log(1e-17)
        x[tail] = np.exp(log_x[tail])
        live = x > 1.0 / (1.0 + sys.float_info.min ** (-(p - 1.0) / 2.0))
        return 1.0 / x[live] - 1.0, live


def model_profile(
    p: float,
    R_max: float = DEFAULT_R_MAX,
    n: int = DEFAULT_N_R,
    tol: Tolerances | None = None,
) -> ModelGeometry:
    """Build the reference model on a geometric grid of n radii in [1, R_max].

    u, du, C and the level data with I1 are the closed forms of the module
    docstring, evaluated once on the grid by one betainc call; the decaying
    tail keeps full relative precision because betainc does and the
    DLMF 8.17.20 sum adds two positive terms.
    Raises ValueError when R_max**(-kappa) is not a normal double: past that
    radius u' and the level_data built from it underflow; and, naming p,
    unless every grid_data array is finite and t_grid strictly increases.
    tol (default Tolerances()) becomes model.tol, the one error budget of
    every solve and check on this model.
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
    if not (all(np.all(np.isfinite(column)) for column in (*d, t)) and np.all(np.diff(t) > 0.0)):
        raise ValueError(
            f"p = {p:g}: the reference profile is not finite with strictly increasing t "
            "on the grid"
        )

    return ModelGeometry(
        p=p,
        flux_constant=C,
        Kp=4.0 * math.pi * C ** (p - 1.0),
        r_grid=r,
        t_grid=t,
        grid_data=d,
        tol=tol or Tolerances(),
    )

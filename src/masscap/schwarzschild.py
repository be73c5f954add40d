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

and u ~ c_fit r**(-sigma) at infinity with c_fit = C/sigma. One betainc
call per evaluation gives B1 = I_x(sigma+1, sigma); with T = x^sigma
(1-x)^sigma / (sigma B(sigma, sigma)) (DLMF 8.17.20), u's numerator is
B0 = B1 + T, a sum of two positive terms, and N is B0 at x = 1/2. Every
level datum is then a ratio of these that cancels nothing that grows
with r (s = 3-p; B0/T = 2F1(2 sigma, 1; sigma+1; x), DLMF 8.17.8):

    u = B0/N,   u' = -sigma T/(r N),   W = 4 pi s^2 (T/B0)^2,
    dW/dr = 2W (sigma/r) (2/(r+1) - B1/B0),   dr/dt = r B0/(s T),
    d(dr/dt)/dr = (B0/T + sigma ((B1/T)(r-1) - 2)/(r+1))/s,

and the decaying coefficient triple's beta ratio I1 = B1/(2N). In the
level-set parameter t = (1-p) log u, u's tail is the exponential map
r ~ c_tilde e^(t/(3-p)) with c_tilde = c_fit**(1/sigma); the inverse t -> r
is Newton's on u = B0/N (ModelGeometry.level_radii). Everything this
module exports - t, the sphere-integrated gradient square W(t), the
boundary capacity, and the two tail normalization constants - is derived
from these formulas; the model keeps its samples as plain arrays on its
r-grid. The mass-2 member is singled out because its boundary data (W(0),
dW/dt(0)) and capacity are the sharp constants against which every other
geometry is compared.

The grid keeps r**(-kappa), the order of B1 and u', a normal double, which
bounds R_max by DBL_MIN**(-1/kappa): about 4.9e7 at p = 1.05, and just
below the default 1e6 at p = 1.039.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import betainc

from .numerics import Tolerances, _check_finite, _check_int, _check_p, _hermite, _log_newton

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


class LevelData(NamedTuple):
    """The reference slice at radii r (module docstring): u, du = u', W, dWdr,
    drdt, dWdt = dWdr drdt, the decaying triple's beta ratio I1, and d_drdt =
    d(dr/dt)/dr, the one derivative of the slice that the triples read."""

    u: np.ndarray
    du: np.ndarray
    W: np.ndarray
    dWdr: np.ndarray
    drdt: np.ndarray
    dWdt: np.ndarray
    I1: np.ndarray
    d_drdt: np.ndarray


def _beta_numerators(sigma: float, x):
    """(B1, T, B0): I_x(sigma+1, sigma), x^sigma (1-x)^sigma / (sigma B(sigma,
    sigma)) and their sum I_x(sigma, sigma) (DLMF 8.17.20), from one betainc call."""
    B1 = betainc(sigma + 1.0, sigma, x)
    # np.power rather than **, so that a scalar x takes the array path too.
    term = np.power(x, sigma) * np.power(1.0 - x, sigma) / (sigma * beta_fn(sigma, sigma))
    return B1, term, B1 + term


def _level_data(p: float, r) -> LevelData:
    s = 3.0 - p
    sigma = s / (p - 1.0)
    B1, T, B0 = _beta_numerators(sigma, 1.0 / (1.0 + r))
    # The same path at x = 1/2 (r = 1), so that u(1) == 1 exactly.
    N = _beta_numerators(sigma, np.array([0.5]))[2][0]
    W = 4.0 * math.pi * s**2 * (T / B0) ** 2
    dWdr = 2.0 * W * (sigma / r) * (2.0 / (r + 1.0) - B1 / B0)
    drdt = r * B0 / (s * T)
    d_drdt = (B0 / T + sigma * ((B1 / T) * (r - 1.0) - 2.0) / (r + 1.0)) / s
    return LevelData(
        u=B0 / N, du=-sigma * T / (r * N), W=W, dWdr=dWdr, drdt=drdt, dWdt=dWdr * drdt,
        I1=B1 / (2.0 * N), d_drdt=d_drdt,
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
    dW/dt, the beta ratio I1 and d(dr/dt)/dr): the one grid evaluation of
    the slice's special functions, which the coefficient solves read. t_grid
    holds the level-set parameters of r_grid, strictly increasing from 0.
    The same closed forms give the level data off the grid via level_data(),
    as accurate as on the grid, and level_radii() inverts t to r. The boundary
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
        """The LevelData, I1 and d(dr/dt)/dr included, at arbitrary radii r >= 1."""
        return _level_data(self.p, np.asarray(r, dtype=float))

    def level_radii(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(r, live): the radii of the level sets t, finite and above (1-p) log 2.

        Newton steps on log r zero F = log(B0 / (N e^(-t/(p-1)))), dF/dlog r =
        -sigma T/B0, from a cubic Hermite guess on t_grid with slope (dr/dt)/r
        (past it, r = c_tilde e^(t/s) - s, s = 3-p) until each step is below
        1e-8: one betainc call on the default grid, RuntimeError after 8. t = 0
        gives r = 1 exactly, as B0 is N by the same path. live marks the t whose
        r**(-2/(p-1)) is a normal double (model_profile's R_max bound), r holds
        their radii only, and a scalar t is one level set. Other t: ValueError."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p, s, tg = self.p, 3.0 - self.p, self.t_grid
        bad = ~np.isfinite(t) | (t <= (1.0 - p) * math.log(2.0))
        if np.any(bad):
            raise ValueError(f"p = {p:g}: no level set at t = {float(t[bad][0])!r}")
        rho = _hermite(t, tg, np.log(self.r_grid), self.grid_data.drdt / self.r_grid)
        c, tail = self.c_tilde, t > tg[-1]  # the tail guess replaces rho past t_max
        rho[tail] = t[tail] / s + np.log(c) + np.log1p(-s / c * np.exp(-t[tail] / s))
        r_live = sys.float_info.min ** (-(p - 1.0) / 2.0)
        live = rho < math.log(r_live) + 1e-3  # a guess within 1e-3 drops no live t
        sigma = s / (p - 1.0)
        target = _beta_numerators(sigma, np.array([0.5]))[2][0] * np.exp(-t[live] / (p - 1.0))

        def step(r):
            _, T, B0 = _beta_numerators(sigma, 1.0 / (1.0 + r))
            return np.log(B0 / target) * B0 / (sigma * T)

        r = _log_newton(step, np.exp(rho[live]), f"p = {p:g}: level_radii")
        live[live] = r < r_live
        return r[r < r_live], live


def model_profile(
    p: float,
    R_max: float = DEFAULT_R_MAX,
    n: int = DEFAULT_N_R,
    tol: Tolerances | None = None,
) -> ModelGeometry:
    """Build the reference model on a geometric grid of n radii in [1, R_max].

    C and the level data are the closed forms of the module docstring,
    evaluated once on the grid by one betainc call; the decaying tail keeps
    full relative precision because betainc does and the DLMF 8.17.20 sum
    adds two positive terms.
    Raises ValueError when R_max**(-kappa) is not a normal double: B1 ~
    r**(-kappa) goes subnormal past that radius, and I1, dW/dr, dW/dt and
    the decaying triple lose precision within 6x of it (u' within 2e3x; at
    p = 1.05 x^sigma underflows too, and with it u and t); and, naming p,
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
    kappa = 2.0 / (p - 1.0)
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
    d = _level_data(p, r)
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

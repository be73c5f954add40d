"""Closed-form oracles for the benchmark, independent of the masscap package.

Everything here follows from the incomplete beta function. With
kappa = 2/(p-1) and sigma = (3-p)/(p-1) = kappa - 1:

- The reference slice (mass-2 Schwarzschild in isotropic coordinates) has
  flux constant 2/B(sigma, sigma), so K_p = 4 pi (2/B(sigma, sigma))^(p-1).
- On the vacuum slice of mass m in arclength gauge, ds = dphi/sqrt(1-2m/phi)
  and x = 2m/phi turn the capacity integral into B(x; kappa-1, 1/2). The
  flux constant is C = (2m)^(kappa-1)/B(kappa-1, 1/2), C_p = 4 pi C^(p-1),
  and the potential is u = I_x(kappa-1, 1/2). The level-set flow is
  therefore phi(t) = 2m / I^-1_u(kappa-1, 1/2) with u = exp(-t/(p-1)), and
  W(t) = 4 pi (p-1)^2 C^2 phi^(2-2 kappa) / u^2.
- The flat exterior phi = 1 + s has C = kappa - 1 = sigma.
- The growing coefficient triple has Q(0) = 8 pi s^3 + 16 pi s^2 - 16 pi s
  with s = 3 - p.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import beta, betainc, betaincinv

FOUR_PI = 4.0 * math.pi


def _kappa(p: float) -> float:
    return 2.0 / (p - 1.0)


def reference_Kp(p: float) -> float:
    """Capacity K_p of the mass-2 reference slice."""
    sigma = (3.0 - p) / (p - 1.0)
    return FOUR_PI * (2.0 / beta(sigma, sigma)) ** (p - 1.0)


def schwarzschild_flux(m: float, p: float) -> float:
    """Flux constant C of the radial potential on the vacuum slice of mass m."""
    a = _kappa(p) - 1.0
    return (2.0 * m) ** a / beta(a, 0.5)


def schwarzschild_Cp(m: float, p: float) -> float:
    """Boundary p-capacity of the vacuum slice of mass m."""
    return FOUR_PI * schwarzschild_flux(m, p) ** (p - 1.0)


def flat_Cp(p: float) -> float:
    """Boundary p-capacity of the Euclidean exterior of the unit sphere."""
    return FOUR_PI * ((3.0 - p) / (p - 1.0)) ** (p - 1.0)


def schwarzschild_flow(m: float, p: float, t) -> tuple[np.ndarray, np.ndarray]:
    """Exact (phi(t), W(t)) of the level-set flow on the vacuum slice of mass m."""
    t = np.asarray(t, dtype=float)
    kappa = _kappa(p)
    u = np.exp(-t / (p - 1.0))
    phi = 2.0 * m / betaincinv(kappa - 1.0, 0.5, u)
    log_w = (
        2.0 * math.log(schwarzschild_flux(m, p))
        + (2.0 - 2.0 * kappa) * np.log(phi)
        + 2.0 * t / (p - 1.0)
    )
    return phi, FOUR_PI * (p - 1.0) ** 2 * np.exp(log_w)


def schwarzschild_potential(m: float, p: float, phi) -> np.ndarray:
    """Exact radial potential u as a function of the warping factor phi."""
    x = 2.0 * m / np.asarray(phi, dtype=float)
    return betainc(_kappa(p) - 1.0, 0.5, x)


def growing_Q0(p: float) -> float:
    """Resolved constant Q(0) of the growing coefficient triple."""
    s = 3.0 - p
    return 8.0 * math.pi * s**3 + 16.0 * math.pi * s**2 - 16.0 * math.pi * s


def rel_err(measured, exact) -> float:
    """Largest relative error of measured against exact (elementwise)."""
    measured = np.asarray(measured, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.max(np.abs(measured - exact) / np.abs(exact)))


def self_test() -> list[str]:
    """Check the oracles against each other and against known values.

    Returns a list of failure messages; empty means every check passed.
    """
    failures = []
    if rel_err(reference_Kp(1.5), FOUR_PI * math.sqrt(60.0)) > 1e-14:
        failures.append("K_p at p = 1.5 is not 4 pi sqrt(60)")
    for p in (1.2, 1.5, 1.8):
        # The reference slice is the vacuum slice of mass 2 (Legendre duplication).
        if rel_err(schwarzschild_Cp(2.0, p), reference_Kp(p)) > 1e-13:
            failures.append(f"Schwarzschild C_p at m = 2 differs from K_p at p = {p}")
        # At t = 0 the flow starts on the horizon, phi = 2m, with u = 1.
        phi, _ = schwarzschild_flow(1.0, p, np.array([0.0, 1.0, 5.0]))
        if rel_err(phi[0], 2.0) > 1e-14:
            failures.append(f"exact flow does not start on the horizon at p = {p}")
        u = schwarzschild_potential(1.0, p, phi)
        if rel_err(u, np.exp(-np.array([0.0, 1.0, 5.0]) / (p - 1.0))) > 1e-12:
            failures.append(f"betainc does not invert betaincinv at p = {p}")
    if rel_err(growing_Q0(1.5), 39.0 * math.pi) > 1e-15:
        failures.append("growing Q(0) at p = 1.5 is not 39 pi")
    return failures

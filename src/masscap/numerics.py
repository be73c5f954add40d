"""Shared numerical primitives.

Small, dependency-light building blocks used by every other module: a
sampled-curve container with monotone interpolation, dense-output
integration of linear ODE systems, per-interval Gauss-Legendre panels for
cumulative integrals on fixed grids, least-squares power-law tail fits, and
finite-difference stencils.

All functions are pure and the containers are immutable once built, so
everything here can be shared freely across the cells of a parameter sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

__all__ = [
    "PowerTailFit",
    "SampledCurve",
    "Tolerances",
    "fit_power_tail",
    "integrate_linear_system",
    "panel_integrals",
    "right_cumulative",
    "stencil_derivative",
]


@dataclass(frozen=True)
class Tolerances:
    """Error budget shared by the whole pipeline.

    accept_rel is the relative tolerance for comparisons against exact
    anchors, and slope_slack is the absolute slack allowed below zero in
    monotonicity certificates. The ODE solvers run at fixed relative
    tolerances of 1e-12, far below both.
    """

    accept_rel: float = 1e-6
    slope_slack: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("accept_rel", "slope_slack"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                isinstance(value, (int, float)) and 0.0 < value < float("inf")
            ):
                raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")


# Relative tolerance of integrate_linear_system.
_ODE_RTOL = 1e-12


class SampledCurve:
    """Scalar samples y_i at strictly increasing abscissae x_i.

    Calling the curve interpolates with the monotone shape-preserving cubic
    (PCHIP), so interpolation never overshoots and reproduces the samples
    exactly at the nodes. Queries outside the sampled range raise rather
    than extrapolate.
    """

    __slots__ = ("x", "y", "_pchip")

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("abscissae and values must be 1-d arrays of equal length")
        if x.size < 2:
            raise ValueError("a curve needs at least two samples")
        if not np.all(np.diff(x) > 0.0):
            raise ValueError("abscissae must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("curve samples must be finite")
        self.x = x
        self.y = y
        self._pchip = None

    def __len__(self) -> int:
        return self.x.size

    def __repr__(self) -> str:
        return f"SampledCurve(n={self.x.size}, x=[{self.x[0]:g}, {self.x[-1]:g}])"

    @property
    def span(self) -> tuple[float, float]:
        return float(self.x[0]), float(self.x[-1])

    def __call__(self, xq):
        q = np.asarray(xq, dtype=float)
        lo, hi = self.x[0], self.x[-1]
        if np.any(q < lo) or np.any(q > hi):
            raise ValueError(
                f"query outside the sampled range [{lo:g}, {hi:g}]"
            )
        if self._pchip is None:
            self._pchip = PchipInterpolator(self.x, self.y, extrapolate=False)
        out = self._pchip(q)
        if np.ndim(xq) == 0:
            return float(out)
        return out


def integrate_linear_system(
    rhs: Callable[[float], np.ndarray],
    y0,
    span: tuple[float, float],
    grid,
    direction: str = "forward",
) -> list[SampledCurve]:
    """Integrate y' = A(x) y with dense output and sample it on a grid.

    rhs maps a scalar x to the (n, n) system matrix A(x). span = (x_lo, x_hi)
    with x_lo < x_hi; direction picks which endpoint carries the data y0
    ("forward" starts at x_lo, "backward" at x_hi). The result is one
    SampledCurve per component, sampled on `grid`, a strictly increasing
    array inside span.

    The integrator is an explicit embedded Runge-Kutta pair of order 8(5)
    with dense output. The relative tolerance is 1e-12; the absolute
    tolerance is a small fraction of the seed scale so that components
    passing through zero stay resolved.
    """
    x_lo, x_hi = float(span[0]), float(span[1])
    if not x_lo < x_hi:
        raise ValueError("span must satisfy x_lo < x_hi")
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if direction == "forward":
        t0, t1 = x_lo, x_hi
    elif direction == "backward":
        t0, t1 = x_hi, x_lo
    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")

    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or not np.all(np.diff(xs) > 0.0):
        raise ValueError("grid must be a strictly increasing 1-d array")
    if xs[0] < x_lo or xs[-1] > x_hi:
        raise ValueError("grid must lie inside the integration span")

    atol = max(float(np.max(np.abs(y0))), 1e-12) * _ODE_RTOL * 1e-3

    def odefun(x, y):
        return np.asarray(rhs(x), dtype=float) @ y

    sol = solve_ivp(
        odefun,
        (t0, t1),
        y0,
        method="DOP853",
        rtol=_ODE_RTOL,
        atol=atol,
        dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"linear system integration failed: {sol.message}")
    values = sol.sol(xs)
    if not np.all(np.isfinite(values)):
        raise RuntimeError("linear system integration produced non-finite values")
    return [SampledCurve(xs, values[i]) for i in range(y0.size)]


# Nodes and weights of the 12-point Gauss-Legendre rule on [-1, 1].
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(12)


def panel_integrals(f: Callable[[np.ndarray], np.ndarray], grid) -> np.ndarray:
    """12-point Gauss-Legendre integral of f over each consecutive interval of grid.

    f must accept a 1-d array. Returns len(grid) - 1 panel values; their
    cumulative sums reproduce the integral of f between any two grid points
    to quadrature precision.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0.0):
        raise ValueError("grid must be a strictly increasing 1-d array")
    mid = 0.5 * (grid[:-1] + grid[1:])
    half = 0.5 * np.diff(grid)
    nodes = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return (half[:, None] * _GAUSS_WEIGHTS[None, :] * vals).sum(axis=1)


def right_cumulative(panels: np.ndarray, tail: float = 0.0) -> np.ndarray:
    """Cumulative integral to the right end: out[i] = tail + sum(panels[i:]).

    Summing right-to-left keeps full relative precision in the far tail,
    where the integrals this package cares about decay to zero. out has one
    more entry than panels; out[-1] == tail.
    """
    panels = np.asarray(panels, dtype=float)
    out = np.empty(panels.size + 1)
    out[-1] = tail
    out[:-1] = tail + np.cumsum(panels[::-1])[::-1]
    return out


class PowerTailFit(NamedTuple):
    """Result of a power-law tail fit y ~ c0 * x**alpha * (1 + c1/x).

    residual is the rms misfit over the window divided by |c0|.
    """

    c0: float
    c1: float
    residual: float


def fit_power_tail(
    curve: SampledCurve,
    alpha: float,
    window: float = 10.0,
    max_residual: float = 1e-3,
) -> PowerTailFit:
    """Least-squares fit of a curve tail to c0 * x**alpha * (1 + c1/x).

    The fit runs on the trailing window [x_max/window, x_max]. After
    dividing out x**alpha it solves for (c0, c0*c1) against the columns
    [1, 1/x], plus a 1/x**2 column so that the next expansion order does not
    bias c1. A residual above max_residual (relative to c0) means the
    declared alpha is wrong and raises.
    """
    if window <= 1.0:
        raise ValueError("window must exceed 1")
    x, y = curve.x, curve.y
    mask = x >= x[-1] / window
    if int(mask.sum()) < 4:
        raise ValueError("not enough samples in the fit window")
    xs = x[mask]
    ys = y[mask] / xs**alpha
    design = np.column_stack([np.ones_like(xs), 1.0 / xs, xs**-2.0])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    c0 = float(coef[0])
    scale = max(abs(c0), np.max(np.abs(ys)) * 1e-12, 1e-300)
    residual = float(np.sqrt(np.mean((design @ coef - ys) ** 2)) / scale)
    if residual > max_residual:
        raise ValueError(
            f"tail fit residual {residual:.3e} exceeds {max_residual:.3e}; "
            f"the declared exponent {alpha} is likely wrong"
        )
    c1 = float(coef[1] / c0) if c0 != 0.0 else 0.0
    return PowerTailFit(c0, c1, residual)


def _fd_weights(offsets: np.ndarray) -> np.ndarray:
    """First-derivative weights for integer sample offsets (unit spacing).

    Solves the Vandermonde moment system sum_j w_j o_j^k = k! [k == 1];
    exact for polynomials up to degree len(offsets) - 1.
    """
    o = np.asarray(offsets, dtype=float)
    n = o.size
    rhs = np.zeros(n)
    rhs[1] = 1.0
    return np.linalg.solve(np.vander(o, n, increasing=True).T, rhs)


def stencil_derivative(y: np.ndarray, h: float, order: int = 4) -> np.ndarray:
    """First derivative of uniformly spaced samples, O(h^order).

    Centered (order + 1)-point stencil in the interior, one-sided stencils
    of the same width near the edges. order must be even.
    """
    y = np.asarray(y, dtype=float)
    if order < 2 or order % 2:
        raise ValueError("order must be a positive even integer")
    width = order + 1
    half = order // 2
    if y.size < width:
        raise ValueError(f"need at least {width} samples")
    if not h > 0.0:
        raise ValueError("spacing must be positive")
    d = np.empty_like(y)
    if order == 4:
        d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    else:
        centered = _fd_weights(np.arange(-half, half + 1))
        acc = np.zeros(y.size - 2 * half)
        for j, w in enumerate(centered):
            acc += w * y[j : j + acc.size]
        d[half:-half] = acc / h
    for i in range(half):
        head = _fd_weights(np.arange(width) - i)
        d[i] = np.dot(head, y[:width]) / h
        d[-1 - i] = -np.dot(head, y[-width:][::-1]) / h
    return d

"""Shared numerical primitives.

Small, dependency-light building blocks used by every other module: a
sampled-curve container with monotone interpolation, a DOP853 integrator
stepped in plain floats for small systems (scipy's method and step control,
one flat buffer of interpolants, vectorised dense output), dense-output
integration of linear ODE systems, per-interval Gauss-Legendre panels for
cumulative integrals on fixed grids, least-squares power-law tail fits, and
finite-difference stencils.

All functions are pure and the containers are immutable once built, so
everything here can be shared freely across the cells of a parameter sweep.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import mul
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.interpolate import PchipInterpolator

__all__ = [
    "DenseSolution",
    "PowerTailFit",
    "SampledCurve",
    "Tolerances",
    "dop853",
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


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10) as
# scipy ships it, as plain floats: stage rows (c, a) of the 12-stage step,
# the weights B and the 5th and 3rd order error weights E5 and E3 (13
# entries, the last one for f at the new point), the three extra stages of
# the dense output and the 4 x 16 interpolant matrix D.
_DOP_STAGES = [
    (float(_dop.C[s]), _dop.A[s, :s].tolist()) for s in range(1, _dop.N_STAGES)
]
_DOP_EXTRA = [
    (float(_dop.C[s]), _dop.A[s, :s].tolist())
    for s in range(_dop.N_STAGES + 1, _dop.N_STAGES_EXTENDED)
]
_DOP_B = _dop.B.tolist()
_DOP_E5 = _dop.E5.tolist()
_DOP_E3 = _dop.E3.tolist()
_DOP_D = _dop.D.tolist()
_DOP_EXPONENT = -1.0 / 8.0  # -1/(order of the error estimator + 1)
_DOP_SAFETY = 0.9
_DOP_MIN_FACTOR = 0.2
_DOP_MAX_FACTOR = 10.0
# Horner rows of the interpolant of degree 7 in x = (t - t_old)/h.
_DOP_ROWS = _dop.INTERPOLATOR_POWER


def _rms(values) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values))


class DenseSolution:
    """The continuous solution of one dop853 run.

    t holds the step ends in the direction of integration, steps the number
    of accepted steps and nfev the number of right-hand-side evaluations.
    sol(t) evaluates the interpolants at a scalar or an array of points.
    """

    __slots__ = ("t", "nfev", "steps", "_records", "_n")

    def __init__(self, records: array, n: int, t_end: float, nfev: int):
        width = 2 + (1 + _DOP_ROWS) * n  # t_old, h, y_old, 7 rows per component
        self._records = np.frombuffer(records, dtype=float).reshape(-1, width)
        self._n = n
        self.t = np.append(self._records[:, 0], t_end)
        self.steps = self._records.shape[0]
        self.nfev = nfev

    def sol(self, t) -> np.ndarray:
        """State at t: shape (n,) for a scalar, (n, len(t)) for an array.

        A point on a step end takes the step that ends there, the first
        step takes the start, and points outside the span extrapolate the
        nearest step, as scipy's OdeSolution does. Each component is summed
        in scipy's Horner order, alternating factors x and 1 - x.
        """
        tq = np.asarray(t, dtype=float)
        flat = tq.reshape(-1)
        ends, last = self.t, self.steps - 1
        if ends[-1] >= ends[0]:
            seg = np.searchsorted(ends, flat, side="left") - 1
        else:
            seg = self.steps - np.searchsorted(ends[::-1], flat, side="right")
        seg = np.clip(seg, 0, last)
        rec = self._records
        x = (flat - rec[seg, 0]) / rec[seg, 1]
        x1 = 1.0 - x
        n = self._n
        out = np.empty((n, flat.size))
        for i in range(n):
            base = 2 + n + i * _DOP_ROWS
            y = np.zeros(flat.size)
            for j, k in enumerate(reversed(range(_DOP_ROWS))):
                y += rec[seg, base + k]
                y *= x1 if j % 2 else x
            y += rec[seg, 2 + i]
            out[i] = y
        return out.reshape((n,) + tq.shape)


def dop853(
    fun: Callable[[float, list], Sequence[float]],
    t_span: tuple[float, float],
    y0,
    *,
    rtol: float,
    atol: float,
    max_step: float = math.inf,
) -> DenseSolution:
    """Integrate y' = fun(t, y) from t_span[0] to t_span[1] with DOP853.

    fun takes a float and a list of n floats and returns n floats. The
    method is scipy's `solve_ivp(method="DOP853", dense_output=True)`,
    stepped in plain floats for small systems, where numpy's per-call cost
    would dominate: the same tableau, the Hairer II.4 initial step, the
    error norm |h| e5^2 / sqrt((e5^2 + 0.01 e3^2) n) on the scale
    atol + rtol max(|y|, |y_new|), safety 0.9, step factors in [0.2, 10],
    no growth right after a rejection, and the 7th-degree interpolant of
    each step. Each accepted step adds t_old, h, y_old and its 7 x n
    interpolant rows to one flat buffer. Raises RuntimeError when the step
    falls below 10 ulp of t.
    """
    t0, t_end = float(t_span[0]), float(t_span[1])
    if t_end == t0:
        raise ValueError("t_span must have nonzero length")
    if not (rtol > 0.0 and atol > 0.0 and max_step > 0.0):
        raise ValueError("rtol, atol and max_step must be positive")
    direction = 1.0 if t_end > t0 else -1.0
    y = [float(v) for v in y0]
    n = len(y)

    nfev = 2
    f = fun(t0, y)
    # Initial step (Hairer, Norsett & Wanner, II.4; scipy's select_initial_step).
    interval = abs(t_end - t0)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / sc for v, sc in zip(y, scale)])
    d1 = _rms([v / sc for v, sc in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0 * direction, [v + h0 * direction * dv for v, dv in zip(y, f)])
    d2 = _rms([(b - a) / sc for a, b, sc in zip(f, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_DOP_EXPONENT
    h_abs = min(100.0 * h0, h1, interval, max_step)

    records = array("d")
    t = t0
    while direction * (t - t_end) < 0.0:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"dop853: step size fell below 10 ulp of t = {t!r}")
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0.0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)

            # K holds one column of stage derivatives per component.
            K = [[v] for v in f]
            for c, a in _DOP_STAGES:
                ys = [v + sum(map(mul, col, a)) * h for v, col in zip(y, K)]
                for col, v in zip(K, fun(t + c * h, ys)):
                    col.append(v)
            y_new = [v + h * sum(map(mul, col, _DOP_B)) for v, col in zip(y, K)]
            f_new = fun(t + h, y_new)
            for col, v in zip(K, f_new):
                col.append(v)
            nfev += _dop.N_STAGES

            e5 = e3 = 0.0
            for v, w, col in zip(y, y_new, K):
                sc = atol + max(abs(v), abs(w)) * rtol
                r5 = sum(map(mul, col, _DOP_E5)) / sc
                r3 = sum(map(mul, col, _DOP_E3)) / sc
                e5 += r5 * r5
                e3 += r3 * r3
            if e5 == 0.0 and e3 == 0.0:
                error = 0.0
            else:
                error = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n)

            if error < 1.0:
                if error == 0.0:
                    factor = _DOP_MAX_FACTOR
                else:
                    factor = min(_DOP_MAX_FACTOR, _DOP_SAFETY * error**_DOP_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_DOP_MIN_FACTOR, _DOP_SAFETY * error**_DOP_EXPONENT)
            rejected = True

        for c, a in _DOP_EXTRA:
            ys = [v + sum(map(mul, col, a)) * h for v, col in zip(y, K)]
            for col, v in zip(K, fun(t + c * h, ys)):
                col.append(v)
        nfev += len(_DOP_EXTRA)

        records.append(t)
        records.append(h)
        records.extend(y)
        for v, w, col in zip(y, y_new, K):
            dy = w - v
            f_old, f_end = col[0], col[_dop.N_STAGES]
            records.extend((dy, h * f_old - dy, 2.0 * dy - h * (f_end + f_old)))
            records.extend([h * sum(map(mul, d, col)) for d in _DOP_D])
        t, y, f = t_new, y_new, f_new
    return DenseSolution(records, n, t, nfev)


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

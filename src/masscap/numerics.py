"""Shared numerical primitives.

Small, dependency-light building blocks used by every other module: the
validated container of a flow's curve samples, a DOP853 integrator in plain
floats for small systems, dense-output integration of linear ODE systems, and
per-interval Gauss-Legendre panels for cumulative integrals on fixed grids.

dop853 has scipy's method and step control. Each right-hand side is
written once as source text (Rhs). A run is one call of the step loop
generated per text, with the text inlined in each stage (_dop_kernel);
each piece between the restart points of a t_span takes at most two, as
dop853 describes. One numpy pass then evaluates the dense-output stages
of all steps of all pieces through the text's array twin (_twin) and
assembles the interpolants, column by column.

The least-squares power-law tail fit fit_power_tail has no caller in the
package (verify fits its limits itself); like frobenius.py it is kept
while the benchmark's tracer names it.

The tableau is read from scipy's dop853_coefficients.py by file path, so
importing this module never runs scipy.integrate's package __init__ (which
loads scipy.optimize, scipy.sparse.linalg and scipy.linalg). solve_ivp
is imported only on demand: inside the body of integrate_linear_system,
which no module of the package calls, and by the module __getattr__ hooks
of this module and of warped when something asks for their solve_ivp.

All functions are pure and the containers are immutable once built, so
everything here can be shared freely across the cells of a parameter sweep.
"""

from __future__ import annotations

import ast
import builtins
import functools
import importlib.util
import linecache
import math
import numbers
import operator
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy
from numpy.polynomial.legendre import leggauss

__all__ = [
    "DenseSolution",
    "PowerTailFit",
    "Rhs",
    "SampledCurve",
    "Tolerances",
    "dop853",
    "fit_power_tail",
    "integrate_linear_system",
    "panel_integrals",
    "right_cumulative",
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


def _check_p(p: float) -> float:
    """p as a float, refused unless it lies in the open interval (1, 2)."""
    p = float(p)
    if not 1.0 < p < 2.0:
        raise ValueError(f"p must lie in (1, 2), got {p}")
    return p


def _check_finite(**values: float) -> None:
    """Raise ValueError naming the first of the keyword values that is not finite."""
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the largest double
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_int(**values: int) -> None:
    """Raise ValueError naming the first of the keyword values that is not an integer."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


# Relative tolerance of integrate_linear_system.
_ODE_RTOL = 1e-12


class SampledCurve:
    """Scalar samples y_i at strictly increasing abscissae x_i.

    Both are 1-d float arrays of equal length, at least two samples, all
    finite. The package reads the samples themselves; nothing here
    evaluates a curve between its nodes.
    """

    __slots__ = ("x", "y")

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

    def __repr__(self) -> str:
        return f"SampledCurve(n={self.x.size}, x=[{self.x[0]:g}, {self.x[-1]:g}])"


def _load_tableau(path: Path):
    """Execute scipy's DOP853 coefficient file at path as a standalone module.

    The file imports only numpy. Loading it by path skips
    scipy/integrate/__init__.py; the constants themselves are never copied.
    """
    if not path.is_file():
        raise ImportError(f"scipy's DOP853 tableau is not at {path}")
    spec = importlib.util.spec_from_file_location("masscap._dop853_coefficients", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_dop = _load_tableau(
    Path(scipy.__file__).parent / "integrate" / "_ivp" / "dop853_coefficients.py"
)

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10) with
# scipy's tableau and step control.
_DOP_EXPONENT = -1.0 / 8.0  # -1/(order of the error estimator + 1)
_DOP_SAFETY = 0.9
_DOP_MIN_FACTOR = 0.2
_DOP_MAX_FACTOR = 10.0
_DOP_EXTRA = _dop.N_STAGES_EXTENDED - _dop.N_STAGES - 1  # dense-output stages
# Horner rows of the interpolant of degree 7 in x = (t - t_old)/h.
_DOP_ROWS = _dop.INTERPOLATOR_POWER


def _each(f, *args):
    """f per element of the broadcast arguments, as Python numbers; a row per value f returns."""
    columns = [np.atleast_1d(a).tolist() for a in np.broadcast_arrays(*args)]
    return np.array(list(map(f, *columns)), dtype=float).T


def _div(a, b):
    if np.count_nonzero(b) < np.size(b):  # float division raises where numpy gives inf or nan
        raise ZeroDivisionError("float division by zero")
    return a / b


# The globals of generated code: the math module's public names, which
# right-hand-side texts read, and the helpers of their array twins (_twin).
_GLOBALS = {k: v for k, v in vars(math).items() if not k.startswith("_")}
_GLOBALS |= dict(_each=_each, _div=_div, _pow=operator.pow, _where=np.where)
_GLOBALS["_quiet"] = np.errstate(all="ignore")


def _exec(source: str, kind: str, name: str) -> dict:
    """Run generated source; its file name is unique to it and linecache serves it.

    The namespace starts as _GLOBALS, which right-hand-side texts, their
    array twins and the generated runs read.
    """
    filename = f"<masscap.numerics {kind} {name} {zlib.crc32(source.encode()):08x}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = dict(_GLOBALS)
    exec(compile(source, filename, "exec"), namespace)
    return namespace


@functools.cache
def _rhs_function(text: str):
    """The function that a right-hand-side text defines, compiled once."""
    (node,) = ast.parse(text).body
    return _exec(text, "rhs", node.name)[node.name]


class Rhs:
    """An ODE right-hand side y' = f(t, y), written once as source text.

    text is the source of one function `def name(t, y0, ..., *, c0, ...)`:
    its positional parameters are the time and the n state components, its
    keyword-only ones the constants of a run, which are given here by
    keyword and kept as the tuple consts in the text's order. The body is
    statements ending in its one `return`, of a tuple of n values. Besides
    what it binds, the text reads only the math module's names (exp, log,
    ...) and the builtins, and its calls pass no keyword arguments (_twin).

    Calling rhs(t, y) runs the function the text defines. dop853 pastes the
    text into its generated run in place of that call (_dop_kernel), so the
    run and a call evaluate the same expressions on the same doubles. After
    the last run it calls the text's array twin (_twin) once per dense-output
    stage, on the values of all steps (_interpolants).
    """

    __slots__ = ("text", "consts", "_call")

    def __init__(self, text: str, **consts):
        function = _rhs_function(text)
        code = function.__code__
        names = code.co_varnames[code.co_argcount : code.co_argcount + code.co_kwonlyargcount]
        if sorted(consts) != sorted(names):
            raise TypeError(f"{code.co_name} takes the constants {names}, got {tuple(consts)}")
        self.text = text
        self.consts = tuple(consts[name] for name in names)
        self._call = functools.partial(function, **consts)

    def __call__(self, t: float, y) -> Sequence[float]:
        return self._call(t, *y)


def _ast_call(name: str, *args) -> ast.Call:
    return ast.Call(ast.Name(name, ast.Load()), list(args), [])


class _Twin(ast.NodeTransformer):
    temps = 0  # middle operands of chained comparisons bound so far

    def visit_Call(self, node):
        self.generic_visit(node)
        if node.keywords:
            raise ValueError(f"no array twin for keyword arguments: {ast.unparse(node)}")
        return _ast_call("_each", node.func, *node.args)

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Pow):
            return _ast_call("_each", ast.Name("_pow", ast.Load()), node.left, node.right)
        if isinstance(node.op, ast.Div):
            return _ast_call("_div", node.left, node.right)
        return node

    def visit_IfExp(self, node):
        self.generic_visit(node)
        return _ast_call("_where", node.test, node.body, node.orelse)

    def visit_Compare(self, node):
        self.generic_visit(node)
        left, pairs = node.left, []
        for op, right in zip(node.ops, node.comparators):
            if right is not node.comparators[-1]:  # a middle operand is evaluated once
                self.temps += 1
                right = ast.NamedExpr(ast.Name(f"_m{self.temps}", ast.Store()), right)
            pairs.append(ast.Compare(left, [op], [right]))
            left = getattr(right, "target", right)
        return functools.reduce(lambda a, b: ast.BinOp(a, ast.BitAnd(), b), pairs)


@functools.cache
def _twin(text: str) -> str:
    """The array twin of a right-hand-side text: per element, the text's doubles.

    Arithmetic and comparisons run in numpy in the text's order (IEEE, as
    on floats). Calls and `**` run per element through the scalar function
    (_each): numpy's exp and square are not libm's exp and pow. `a if c
    else b` is np.where, both sides evaluated (a side raises even where it
    is not taken); a chained comparison is the & of its pairs. A division
    by zero raises, as in the text; no numpy warning escapes (np.errstate).
    """
    (node,) = ast.parse(text).body
    node = _Twin().visit(node)
    node.decorator_list = [ast.Name("_quiet", ast.Load())]
    return ast.unparse(node) + "\n"


def _dop_names(prefix: str, n: int) -> str:
    return "".join(f"{prefix}{i}, " for i in range(n))


def _dop_sum(coefs, i: int) -> str:
    """Source of the sum of k{j}_{i} * coefs[j], left to right, zero terms dropped."""
    terms = [f"k{j}_{i} * {c!r}" for j, c in enumerate(coefs.tolist()) if c != 0.0]
    return "(" + " + ".join(terms) + ")"


class _Inlined(NamedTuple):
    """A right-hand-side text taken apart for pasting into the run (_inline)."""

    name: str
    params: list  # the time, then the state components; None where never read
    consts: list
    body: list  # the source of each statement before the return
    returned: str  # the returned tuple of n values


def _inline(text: str) -> _Inlined:
    """Take a right-hand-side text apart, its names renamed apart from the run's.

    Every name the text binds, and every name it reads that is neither in
    _GLOBALS nor a builtin, becomes r_<name>; no name of the run starts
    with r_. A parameter that the text never reads is not bound at all, so
    the run does not sum its stage value (the Schwarzschild flow's s).
    """
    (node,) = ast.parse(text).body
    params = [a.arg for a in node.args.args]
    consts = [a.arg for a in node.args.kwonlyargs]
    names = [x for x in ast.walk(node) if isinstance(x, ast.Name)]
    bound = {*params, *consts, *(x.id for x in names if isinstance(x.ctx, ast.Store))}
    for x in names:
        if x.id in bound or not (x.id in _GLOBALS or hasattr(builtins, x.id)):
            x.id = "r_" + x.id
    *body, ret = node.body
    read = {x.id for x in names if isinstance(x.ctx, ast.Load)}
    return _Inlined(
        node.name,
        ["r_" + x if "r_" + x in read else None for x in params],
        ["r_" + x for x in consts],
        [ast.unparse(stmt) for stmt in body],
        ast.unparse(ret.value),
    )


def _dop_stage(rhs: _Inlined, s: int, t: str, state: list) -> list:
    """Lines of stage s: the text at time t and state, its values in k{s}_0, k{s}_1, ...

    A returned tuple of up to 3 values is unpacked without building it
    (CPython 3.11's compiler), so no stage of a flow builds a sequence.
    """
    lines = [f"{x} = {v}" for x, v in zip(rhs.params, [t, *state]) if x] + rhs.body
    lines.append(f"{_dop_names(f'k{s}_', len(state))}= {rhs.returned}")
    return [line for stmt in lines for line in stmt.splitlines()]


def _block(depth: int, lines: list) -> str:
    return "\n".join(" " * depth + line for line in lines)


@functools.cache
def _dop_kernel(text: str):
    """A whole DOP853 run of one right-hand-side text (Rhs) as generated code, compiled once.

    run(consts, t, t_end, direction, h_abs, y, f, rtol, atol, max_step,
    defer) starts from the state y at t, f being the right-hand side
    there, consts an Rhs's constants and h_abs the initial step, and
    returns the t it stopped at (t_end unless a deferred step raised),
    the number of right-hand sides it evaluated, the last state and its
    right-hand side, the raw rows, how many trailing rows it deferred
    and the largest error norm of a step it checked. It is dop853's step
    loop with scipy's step control, whose constants are written by repr.
    With defer set, the first step whose h_abs is max_step after the
    clamp to [min_step, max_step] and every later step of the run are
    deferred: each runs its stages and packs its raw row at max_step, and
    skips min_step (the first one has checked it) and the whole error
    block. A math range or domain error (ArithmeticError or ValueError) in
    a deferred step ends the run where the step began. Without defer every
    step is checked, and such an error raises. Each of the 12 stages of an
    attempt is the text itself in place of a call (its time and state
    bound to its parameters, its statements, its return values as the
    stage's components; _inline renames its names apart from the run's,
    which are none of the names in _GLOBALS or the builtins). The scaled
    error norm, computed after the deferred branch, is one expression,
    max(a, b) written b if b > a else a, builtin max's rule. An accepted
    step appends its raw row t, h, y, y_new, k0 .. k12 (each stage's n
    components in order), packed by one struct, to the array("d") that
    _interpolants reads; the 3 dense-output stages steer nothing here
    and are only counted in nfev (_interpolants evaluates them). State
    and stages stay locals from step to step. Coefficients are scipy's
    exact reprs, exactly-zero terms are dropped, sums run left to right.
    linecache holds the source for tracebacks.
    """
    rhs = _inline(text)
    n = len(rhs.params) - 1
    last = _dop.N_STAGES  # stage k{last} is f at the new point
    ys, ws = _dop_names("y", n), _dop_names("w", n)
    ks = "".join(_dop_names(f"k{s}_", n) for s in range(last + 1))
    attempt = []
    for s in range(1, last):  # stage s at t + c h, from y plus h times its sum
        state = [f"y{i} + {_dop_sum(_dop.A[s, :s], i)} * h" for i in range(n)]
        attempt += _dop_stage(rhs, s, f"t + {_dop.C[s].item()!r} * h", state)
    attempt += [f"w{i} = y{i} + h * {_dop_sum(_dop.B, i)}" for i in range(n)]
    attempt += _dop_stage(rhs, last, "t + h", [f"w{i}" for i in range(n)])
    attempt += [f"nfev += {_dop.N_STAGES}", "if deferred is not None:", "    break"]
    attempt += ["h_abs = abs(h)"]
    for i in range(n):
        attempt += [
            f"a{i} = abs(y{i})",
            f"b{i} = abs(w{i})",
            f"sc{i} = atol + (b{i} if b{i} > a{i} else a{i}) * rtol",
            f"r5_{i} = {_dop_sum(_dop.E5, i)} / sc{i}",
            f"r3_{i} = {_dop_sum(_dop.E3, i)} / sc{i}",
        ]
    # No leading 0.0 + (the oracle's loop starts there): r * r is never -0.0,
    # so 0.0 + r * r is r * r bit for bit.
    e5 = " + ".join(f"r5_{i} * r5_{i}" for i in range(n))
    e3 = " + ".join(f"r3_{i} * r3_{i}" for i in range(n))
    proposed = f"{_DOP_SAFETY!r} * error ** {_DOP_EXPONENT!r}"
    width = 2 + (3 + last) * n
    source = f"""\
from array import array
from struct import Struct
pack = Struct("{width}d").pack
def run(consts, t, t_end, direction, h_abs, y, f, rtol, atol, max_step, defer):
    ({"".join(f"{x}, " for x in rhs.consts)}) = consts
    ({ys}) = y
    ({_dop_names("k0_", n)}) = f
    raw = array("d")
    put = raw.frombytes
    nfev = 0
    peak = 0.0
    deferred = None
    try:
        while direction * (t - t_end) < 0.0:
            if deferred is None:
                min_step = 10.0 * abs(nextafter(t, direction * inf) - t)
                if h_abs > max_step:
                    h_abs = max_step
                elif h_abs < min_step:
                    h_abs = min_step
                if defer and h_abs == max_step:
                    deferred = len(raw)
            rejected = False
            while True:
                if not h_abs >= min_step:
                    raise RuntimeError(
                        f"dop853: step size {{h_abs!r}} is not a number"
                        f" or below 10 ulp of t = {{t!r}}"
                    )
                t_new = t + h_abs * direction
                if direction * (t_new - t_end) > 0.0:
                    t_new = t_end
                h = t_new - t
{_block(16, attempt)}
                e5 = {e5}
                e3 = {e3}
                if e5 == 0.0 and e3 == 0.0:
                    error = 0.0
                else:
                    error = h_abs * e5 / sqrt((e5 + 0.01 * e3) * {n})
                if error < 1.0:
                    if error > peak:
                        peak = error
                    if error == 0.0:
                        factor = {_DOP_MAX_FACTOR!r}
                    else:
                        factor = min({_DOP_MAX_FACTOR!r}, {proposed})
                    if rejected:
                        factor = min(1.0, factor)
                    h_abs *= factor
                    break
                h_abs *= max({_DOP_MIN_FACTOR!r}, {proposed})
                rejected = True
            nfev += {_DOP_EXTRA}
            put(pack(t, h, {ys}{ws}{ks}))
            t = t_new
{_block(12, [f"y{i} = w{i}" for i in range(n)] + [f"k0_{i} = k{last}_{i}" for i in range(n)])}
    except (ArithmeticError, ValueError):
        if deferred is None:
            raise
    deferred = 0 if deferred is None else (len(raw) - deferred) // {width}
    return t, nfev, [{ys}], [{_dop_names("k0_", n)}], raw, deferred, peak
"""
    run = _exec(source, "dop853", rhs.name)["run"]
    # CPython 3.11 specializes a function's bytecode at its 8th call; loops
    # do not count, and a whole run is one call. Runs over an empty span
    # (the loop never starts) make the first real run a specialized one.
    zeros = (0.0,) * n
    for _ in range(8):
        run((None,) * len(rhs.consts), 0.0, 0.0, 1.0, 0.0, zeros, zeros, 0.0, 0.0, 0.0, False)
    return run


def _interpolants(fun: Rhs, raws: list, n: int) -> np.ndarray:
    """DenseSolution's columns from the raw rows of _dop_kernel runs of fun.

    The raw rows of all runs are joined and transposed in one copy, so each
    of their columns (t_old, h, each component of y_old, y_new and of the
    13 stages) is a contiguous array of a value per step. The 3 dense-output
    stages of all steps are evaluated here: each at t + c h and y + h times
    its sum, through the text's array twin (_twin). Then the columns: t_old,
    h, y_old and, per component, the 7 Horner rows dy, h f_old - dy,
    2 dy - h (f_new + f_old) and h (D . k) for the 4 rows of D. Every stage
    and row is the elementwise form of the sum the step would have written
    out, in the same order with the same zero terms dropped, so the doubles
    are the same.
    """
    width = 2 + (3 + _dop.N_STAGES) * n
    cols = np.concatenate([np.frombuffer(raw).reshape(-1, width).T for raw in raws], axis=1)
    t, h, y = cols[0], cols[1], cols[2 : 2 + n]
    dy = cols[2 + n : 2 + 2 * n] - y
    k = [*cols[2 + 2 * n :].reshape(_dop.N_STAGES + 1, n, -1)]
    twin = _rhs_function(_twin(fun.text))
    with np.errstate(all="ignore"):
        for s in range(_dop.N_STAGES + 1, _dop.N_STAGES_EXTENDED):
            state = y + _fold(k, _dop.A[s, :s]) * h
            k.append(np.empty_like(y))
            values = twin(t + _dop.C[s] * h, *state, **fun._call.keywords)
            for i, v in enumerate(values):  # a constant component broadcasts
                k[s][i] = v
    f_old, f_new = k[0], k[_dop.N_STAGES]
    rows = [dy, h * f_old - dy, 2.0 * dy - h * (f_new + f_old)]
    rows += [h * _fold(k, d) for d in _dop.D]
    columns = np.empty((2 + (1 + _DOP_ROWS) * n, cols.shape[1]))
    columns[: 2 + n] = cols[: 2 + n]
    horner = columns[2 + n :].reshape(n, _DOP_ROWS, -1)  # a view: component, row, step
    for r, row in enumerate(rows):
        horner[:, r] = row
    return columns


def _fold(k: list, coefs) -> np.ndarray:
    """The sum of k[j] * coefs[j], left to right, zero terms dropped (as _dop_sum)."""
    (j, c), *rest = [(j, c) for j, c in enumerate(coefs.tolist()) if c != 0.0]
    acc = k[j] * c
    for j, c in rest:
        acc = acc + k[j] * c
    return acc


def _capped_steps(rows: np.ndarray, n: int, rtol, atol, max_step, direction):
    """How many of a run's deferred rows its step loop would have taken as they are.

    rows are the trailing raw rows of a _dop_kernel run, one per step at
    max_step whose error norm the run deferred. Here each row's
    norm and next step are computed with the loop's own arithmetic: the
    same sums in the same order (_fold, as _dop_sum), b if b > a else a,
    sqrt and nextafter, each correctly rounded in numpy as in math, and
    error ** exponent per element through float pow (_each). The loop
    takes row j as it is when error < 1, max_step >= 10 ulp of its t and,
    after row j - 1, |h| factor >= max_step, so that row j began at
    max_step too. Returns the number of leading rows taken, the h_abs the
    loop would start the next step with (max_step for the first row, which
    the run checked against min_step itself) and the largest norm of the
    rows taken.
    """
    cols = rows.T
    t, h, y, w = cols[0], cols[1], cols[2 : 2 + n], cols[2 + n : 2 + 2 * n]
    k = [*cols[2 + 2 * n :].reshape(_dop.N_STAGES + 1, n, -1)]
    a, b = np.abs(y), np.abs(w)
    sc = atol + np.where(b > a, b, a) * rtol
    r5, r3 = _fold(k, _dop.E5) / sc, _fold(k, _dop.E3) / sc
    e5, e3 = functools.reduce(operator.add, r5 * r5), functools.reduce(operator.add, r3 * r3)
    h_abs = np.abs(h)
    with np.errstate(all="ignore"):  # 0/0 where e5 == e3 == 0, replaced by 0 as in the loop
        error = np.where((e5 == 0.0) & (e3 == 0.0), 0.0, h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * n))
    proposed = _DOP_SAFETY * _each(operator.pow, np.where(error > 0.0, error, 1.0), _DOP_EXPONENT)
    grown = h_abs * np.where(error == 0.0, _DOP_MAX_FACTOR, np.minimum(_DOP_MAX_FACTOR, proposed))
    min_step = 10.0 * np.abs(np.nextafter(t, direction * np.inf) - t)
    taken = (error < 1.0) & (max_step >= min_step)
    taken[1:] &= grown[:-1] >= max_step
    kept = len(rows) if taken.all() else int(np.argmin(taken))
    h_next = float(grown[kept - 1]) if kept else max_step
    return kept, h_next, float(error[:kept].max(initial=0.0))


def _rms(values) -> float:
    total = 0.0  # a left-to-right fold: builtin sum() is compensated from CPython 3.12
    for v in values:
        total += v * v
    return math.sqrt(total / len(values))


class DenseSolution:
    """The continuous solution of one dop853 call, over all pieces of its t_span.

    t holds the step ends in the direction of integration, steps the number
    of accepted steps, nfev the number of right-hand-side evaluations and
    y_end the state the last step reached (its y_new, not an interpolant)
    and max_error the largest scaled error norm of an accepted step (0.0
    without steps): how far below 1 the steps stayed. columns holds, as
    contiguous rows of a value per step, t_old, h, y_old and the 7
    interpolant rows of each component. sol(t) evaluates the interpolants
    at a scalar or an array of points and copies no column to do so.
    """

    __slots__ = ("t", "nfev", "steps", "y_end", "max_error", "_columns", "_n")

    def __init__(
        self, columns, n: int, t_end: float, nfev: int, y_end: Sequence[float], max_error: float
    ):
        self._columns = np.ascontiguousarray(columns, dtype=float)
        self._n = n
        self.t = np.append(self._columns[0], t_end)
        self.steps = self._columns.shape[1]
        self.nfev = nfev
        self.y_end = list(y_end)
        self.max_error = max_error

    def sol(self, t) -> np.ndarray:
        """State at t: shape (n,) for a scalar, (n, len(t)) for an array.

        A point on a step end takes the step that ends there, the first
        step takes the start, and points outside the span extrapolate the
        nearest step, as scipy's OdeSolution does. Each component is summed
        in scipy's Horner order, alternating factors x and 1 - x.
        """
        return self._at(t, range(self._n))

    def _at(self, t, components) -> np.ndarray:
        """The given components of the state at t, one row each, as sol sums them."""
        tq = np.asarray(t, dtype=float)
        flat = tq.reshape(-1)
        ends, cols = self.t, self._columns
        if ends[-1] >= ends[0]:
            seg = np.searchsorted(ends, flat, side="left") - 1
        else:
            seg = self.steps - np.searchsorted(ends[::-1], flat, side="right")
        seg = np.clip(seg, 0, self.steps - 1)
        x = (flat - cols[0].take(seg)) / cols[1].take(seg)
        x1 = 1.0 - x
        out = np.zeros((len(components), flat.size))
        for y, i in zip(out, components):
            base = 2 + self._n + i * _DOP_ROWS
            for j, k in enumerate(reversed(range(_DOP_ROWS))):
                y += cols[base + k].take(seg)
                y *= x1 if j % 2 else x
            y += cols[2 + i].take(seg)
        return out.reshape((len(components),) + tq.shape)


def dop853(
    fun: Rhs,
    t_span: Sequence[float],
    y0,
    *,
    rtol: float,
    atol: float,
    max_step: float = math.inf,
) -> DenseSolution:
    """Integrate y' = fun(t, y) from t_span[0] to t_span[-1] with DOP853.

    fun is an Rhs, whose text the step runs inlined. The method is scipy's
    `solve_ivp(method="DOP853", dense_output=True)`, stepped in plain floats
    for small systems, where numpy's per-call cost would dominate: the
    same tableau, the Hairer II.4 initial step, the error norm
    |h| e5^2 / sqrt((e5^2 + 0.01 e3^2) n) on the scale
    atol + rtol max(|y|, |y_new|), safety 0.9, step factors in [0.2, 10],
    no growth right after a rejection, and the 7th-degree interpolant of
    each step. t_span is the start, any restart points and the end,
    strictly monotone: each piece between two of them is a run of its own,
    with its own initial step, from the state where the last piece's last
    step ended (its y_new), so that no step straddles a point where fun is
    not smooth (Hairer, Norsett & Wanner, Solving ODEs I, II.6). Each
    accepted step packs its raw row (t_old, h, y_old, y_new and the 13
    stages that steer the step) into its run's flat buffer. After the last
    piece one numpy pass, _interpolants, evaluates the 3 dense-output stages
    of all steps and turns rows and stages into the 7 x n interpolant rows
    of each step, the doubles the step would have summed itself; so an
    error in a dense-output stage surfaces after the step loops. The buffers
    are freed when the call returns. The result keeps the last step's y_new
    as y_end. Raises TypeError unless fun is an Rhs, ValueError for a
    non-finite or non-monotone t_span or a non-finite y0, and RuntimeError
    when the step falls below 10 ulp of t or is NaN (a NaN derivative).

    Here each piece's initial step is chosen, with two calls of fun;
    everything after it is a call of _dop_kernel(fun.text), generated once
    per right-hand-side text with that text inlined in each of its 12 stages
    and fun.consts passed in (the step loop, the step control, stages,
    error norm and the packing of the raw row). With a finite max_step, the
    cap usually binds on every step once it is reached, so the norm only
    has to confirm that it keeps binding. Each piece's first run defers
    the norm of every step from the first one that starts at max_step, and
    after the run _capped_steps recomputes the deferred rows' norms in one
    numpy pass and takes the rows that the loop would have taken as they
    are. From the first row that fails, that row and every later one are
    dropped with their nfev, and one checked run resumes from its t, y_old
    and k0, with the h_abs the loop would have started it with, and checks
    every step to the end of its piece. A math range or domain error in a
    deferred step stops the first run where that step began: the loop may
    never have taken it. Once the check has taken the rows before it, the
    checked run resumes there, and raises the error if the loop takes that
    step. So a piece takes at most two runs and one check, and the
    accepted steps, the raw rows, nfev, steps and every stored double are
    the loop's; max_error is the largest norm of an accepted step, from
    the check and from the steps the runs checked. _interpolants then
    calls the array twin of fun.text.
    The order of every sum is fixed in the source or by _fold, not left to
    builtin sum(), which CPython 3.12 made compensated; _rms folds left to
    right too. Tested on CPython 3.11 only, bit for bit against an oracle
    that calls fun and sums each stage as a left-to-right fold from 0.0.
    """
    if not isinstance(fun, Rhs):
        raise TypeError(f"dop853 integrates an Rhs, got {type(fun).__name__}")
    points = [float(x) for x in t_span]
    if len(points) < 2 or not all(map(math.isfinite, points)):
        raise ValueError(f"t_span must be finite, a start and an end at least, got {points!r}")
    direction = 1.0 if points[-1] > points[0] else -1.0
    if not all(direction * (b - a) > 0.0 for a, b in zip(points, points[1:])):
        raise ValueError(f"t_span must be strictly monotone, got {points!r}")
    if not (rtol > 0.0 and atol > 0.0 and max_step > 0.0):
        raise ValueError("rtol, atol and max_step must be positive")
    y = [float(v) for v in y0]
    if not all(map(math.isfinite, y)):
        raise ValueError(f"y0 must be finite, got {y!r}")
    n = len(y)
    width = 2 + (3 + _dop.N_STAGES) * n
    run = _dop_kernel(fun.text)
    raws, nfev, max_error = [], 0, 0.0
    for t0, t_end in zip(points, points[1:]):
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
        nfev += 2  # fun ran twice for the initial step
        t = t0
        for defer in (True, False):  # the checked run always ends the piece
            t, evals, y, f, raw, deferred, peak = run(
                fun.consts, t, t_end, direction, h_abs, y, f, rtol, atol, max_step, defer
            )
            raws.append(raw)
            nfev += evals
            max_error = max(max_error, peak)
            if t == t_end and not deferred:
                break
            rows = np.frombuffer(raw).reshape(-1, width)
            rows = rows[len(rows) - deferred :]  # none if the first deferred step raised
            kept, h_abs, peak = _capped_steps(rows, n, rtol, atol, max_step, direction)
            max_error = max(max_error, peak)
            if kept == deferred and t == t_end:
                break
            if kept < deferred:  # resume from the first row the loop would not have taken
                row = rows[kept].tolist()
                t, y, f = row[0], row[2 : 2 + n], row[2 + 2 * n : 2 + 3 * n]
                raws[-1] = raw[: len(raw) - (deferred - kept) * width]
                nfev -= (deferred - kept) * (_dop.N_STAGES + _DOP_EXTRA)
    return DenseSolution(_interpolants(fun, raws, n), n, t, nfev, y, max_error)


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

    from scipy.integrate import solve_ivp

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


def _hermite(t: np.ndarray, tg: np.ndarray, y: np.ndarray, dydt: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant at t of y, with slopes dydt, on nondecreasing nodes tg:
    y[-1] past tg[-1], the first piece before tg[0], the left value on a piece of length 0."""
    i = np.clip(np.searchsorted(tg, t) - 1, 0, tg.size - 2)
    h = tg[i + 1] - tg[i]
    a = np.divide(np.minimum(t, tg[-1]) - tg[i], h, out=np.zeros(t.shape), where=h > 0.0)
    out = (1.0 - a) ** 2 * ((1.0 + 2.0 * a) * y[i] + a * h * dydt[i])
    out += a * a * ((3.0 - 2.0 * a) * y[i + 1] + (a - 1.0) * h * dydt[i + 1])
    return out


def _log_newton(step, x: np.ndarray, what: str) -> np.ndarray:
    """x after Newton steps x *= exp(step(x)) until each is below 1e-8; RuntimeError after 8."""
    for _ in range(8):
        dlog = step(x)
        x = x * np.exp(dlog)
        if np.all(np.abs(dlog) < 1e-8):
            return x
    raise RuntimeError(f"{what}: Newton steps did not settle")


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


def __getattr__(name: str):
    # PEP 562: perfbench's tracer still lists numerics.solve_ivp, so the name
    # resolves, and scipy.integrate loads, only when something asks for it.
    # This goes away with ROADMAP direction 1's retarget of the tracer.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Unit tests for the shared numerics toolbox."""

import ast
import dis
import inspect
import linecache
import math
import subprocess
import sys
import tracemalloc
import traceback
import warnings
from array import array
from functools import reduce
from operator import add, mul
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop

import masscap
from masscap import SampledCurve, Tolerances, family_bumped, family_schwarzschild, level_flow
from masscap import numerics, warped
from masscap.numerics import (
    DenseSolution,
    Rhs,
    _dop_kernel,
    _load_tableau,
    dop853,
    fit_power_tail,
    integrate_linear_system,
    panel_integrals,
    right_cumulative,
)


class TestTolerances:
    @pytest.mark.parametrize("field", ["accept_rel", "slope_slack"])
    def test_nonpositive_entries_rejected(self, field):
        with pytest.raises(ValueError):
            Tolerances(**{field: 0.0})

    @pytest.mark.parametrize("field", ["accept_rel", "slope_slack"])
    @pytest.mark.parametrize("value", [True, math.inf, math.nan])
    def test_bool_and_non_finite_entries_rejected(self, field, value):
        # True would pass as 1 (a 100 % budget) and inf would pass every gate.
        with pytest.raises(ValueError, match="strictly positive and finite"):
            Tolerances(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "huge-int"])
@pytest.mark.parametrize(
    "name, build",
    [
        ("R_max", lambda v: masscap.model_profile(1.5, R_max=v)),
        ("m", lambda v: masscap.family_schwarzschild(v)),
        ("s_max", lambda v: masscap.family_schwarzschild(2.0, s_max=v)),
        ("m0", lambda v: masscap.family_bumped(v, 0.1)),
        ("eps", lambda v: masscap.family_bumped(1.0, v)),
        ("s1", lambda v: masscap.family_bumped(1.0, 0.1, s1=v)),
        ("s2", lambda v: masscap.family_bumped(1.0, 0.1, s2=v)),
        ("s_max", lambda v: masscap.family_bumped(1.0, 0.1, s_max=v)),
        ("s_max", lambda v: masscap.family_flat_exterior(s_max=v)),
    ],
    ids=[
        "model-R_max", "schw-m", "schw-s_max", "bump-m0", "bump-eps", "bump-s1", "bump-s2",
        "bump-s_max", "flat-s_max",
    ],
)
def test_non_finite_parameters_are_refused_by_name(name, build, value):
    # Unchecked, each fails in a later layer with a message that names
    # neither the parameter nor the value ("abscissae must be strictly
    # increasing", "y0 must be finite", a NaN step, "t_span must be finite");
    # an int past the largest double made math.isfinite raise OverflowError.
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        build(value)


@pytest.mark.parametrize(
    "value", [100.5, 100.0, math.nan, math.inf, True], ids=["half", "float", "nan", "inf", "bool"]
)
@pytest.mark.parametrize(
    "name, build",
    [
        ("n", lambda lab, v: masscap.model_profile(1.5, n=v)),
        ("n", lambda lab, v: masscap.family_schwarzschild(2.0, n=v)),
        ("n", lambda lab, v: masscap.family_bumped(1.0, 0.1, n=v)),
        ("n", lambda lab, v: masscap.family_flat_exterior(n=v)),
        ("n_t", lambda lab, v: level_flow(lab.warp("schwarzschild", m=2.0), 1.5, n_t=v)),
    ],
    ids=["model", "schw", "bump", "flat", "flow"],
)
def test_non_integer_grid_sizes_are_refused_by_name(lab, name, build, value):
    # Unchecked, 100.5 ran on 100 samples without a word, nan failed with
    # "cannot convert float NaN to integer" and inf with OverflowError.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        build(lab, value)


def test_integer_grid_sizes_of_numpy_are_accepted():
    assert masscap.family_flat_exterior(n=np.int64(64)).s_grid.size == 64


class TestSampledCurve:
    @pytest.mark.parametrize(
        "x, y",
        [
            ([1.0, 0.0], [0.0, 1.0]),  # decreasing abscissae
            ([0.0, 0.0], [0.0, 1.0]),  # repeated abscissae
            ([0.0], [0.0]),  # too short
            ([0.0, 1.0], [0.0, np.nan]),  # non-finite
        ],
    )
    def test_bad_inputs_rejected(self, x, y):
        with pytest.raises(ValueError):
            SampledCurve(x, y)


def _grid(lo, hi):
    return np.linspace(lo, hi, 257)


class TestIntegrateLinearSystem:
    def test_scalar_exponential(self):
        (y,) = integrate_linear_system(
            lambda x: np.array([[1.0]]), [1.0], (0.0, 1.0), _grid(0.0, 1.0)
        )
        assert y.y[-1] == pytest.approx(math.e, rel=1e-11)

    def test_rotation_returns_after_full_turn(self):
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        span = (0.0, 2.0 * math.pi)
        cos, sin = integrate_linear_system(lambda x: A, [1.0, 0.0], span, _grid(*span))
        assert cos.y[-1] == pytest.approx(1.0, abs=1e-10)
        assert sin.y[-1] == pytest.approx(0.0, abs=1e-10)

    def test_backward_direction_seeds_the_right_end(self):
        (y,) = integrate_linear_system(
            lambda x: np.array([[1.0]]), [math.e], (0.0, 1.0), _grid(0.0, 1.0), "backward"
        )
        assert y.y[0] == pytest.approx(1.0, rel=1e-11)

    def test_forward_backward_round_trip(self):
        A = np.array([[0.0, 1.0], [-2.0, -0.3]])
        fwd = integrate_linear_system(lambda x: A, [1.0, -0.5], (0.0, 3.0), _grid(0.0, 3.0))
        end = [fwd[0].y[-1], fwd[1].y[-1]]
        back = integrate_linear_system(lambda x: A, end, (0.0, 3.0), _grid(0.0, 3.0), "backward")
        assert back[0].y[0] == pytest.approx(1.0, rel=1e-9)
        assert back[1].y[0] == pytest.approx(-0.5, rel=1e-9)

    def test_explicit_grid_is_respected(self):
        grid = np.array([0.0, 0.25, 1.0])
        (y,) = integrate_linear_system(lambda x: np.array([[0.0]]), [2.0], (0.0, 1.0), grid=grid)
        assert np.array_equal(y.x, grid)
        assert np.allclose(y.y, 2.0)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            integrate_linear_system(
                lambda x: np.array([[0.0]]), [1.0], (0.0, 1.0), _grid(0.0, 1.0), "up"
            )

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError, match="span"):
            integrate_linear_system(lambda x: np.array([[0.0]]), [1.0], (1.0, 1.0), [1.0, 2.0])


_RELAXATION = "def relaxation(t, y0, *, rate):\n    return (-rate * (y0 - cos(t)),)\n"


def _relaxation(sign):
    """y' = -50 (y - cos t) run forward (sign 1), or mirrored in t (sign -1)."""
    return Rhs(_RELAXATION, rate=50.0 * sign)


def _relaxation_exact(t):
    return (2500.0 * np.cos(t) + 50.0 * np.sin(t) - 2500.0 * np.exp(-50.0 * t)) / 2501.0


_pendulum = Rhs("def pendulum(t, x, v):\n    return v, -sin(x)\n")

# Four components: CPython 3.11 unpacks up to 3 returned values without
# building a tuple; 4 take the other path of the generated stages.
_FOUR = "def four(t, x, v, z, u, *, rate):\n    return v, -sin(x), -rate * (z - cos(t)), z - u\n"

# y' = y: finite everywhere, for the probes of non-finite input.
_GROWTH = "def growth(t, y0):\n    return (y0,)\n"

# x' = 1 is a constant, not an array, in the array twin, and v is never read.
_DRIFT = "def drift(t, x, v):\n    return 1.0, -x\n"

# y' = 1/(1 + ((t - 5)/width)^2) - y: smooth, but for a spike at t = 5
# that a step of 10/400 cannot resolve at rtol = atol = 1e-12.
_SPIKE = (
    "def spike(t, y0, *, width):\n"
    "    x = (t - 5.0) / width\n"
    "    return (1.0 / (1.0 + x * x) - y0,)\n"
)

# y' = 1, written to raise a math domain error past t = t_end.
_EDGE = "def edge(t, y0, *, t_end):\n    return (1.0 + 0.0 * log(t_end - t),)\n"

# y' = -k sinh(y), with k jumping from 1 to rate at t = 5: beyond it a step
# of 10/400 lies outside DOP853's stability region, and steps of that size
# grow y until sinh overflows.
_STIFF = "def stiff(t, y0, *, rate):\n    return (-(rate if t > 5.0 else 1.0) * sinh(y0),)\n"


def _fold(terms):
    """terms summed left to right from 0.0: builtin sum() of floats up to CPython 3.11."""
    return reduce(add, terms, 0.0)


def _rms(values):
    return math.sqrt(_fold(v * v for v in values) / len(values))


def _error_norm(y, y_new, K, h_abs, rtol, atol):
    """The scaled error norm of a step, K holding each component's stages, as the loops sum it."""
    e5 = e3 = 0.0
    for v, w, col in zip(y, y_new, K):
        sc = atol + max(abs(v), abs(w)) * rtol
        r5 = _fold(map(mul, col, _dop.E5.tolist())) / sc
        r3 = _fold(map(mul, col, _dop.E3.tolist())) / sc
        e5 += r5 * r5
        e3 += r3 * r3
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


def _factor(error):
    """The loops' step factor after an accepted step."""
    return 10.0 if error == 0.0 else min(10.0, 0.9 * error ** (-1.0 / 8.0))


def _loop_dop853(fun, t_span, y0, *, rtol, atol, max_step=math.inf):
    """The stage-loop DOP853 that the generated kernel replaced: the oracle.

    Each stage, each weight row and each interpolant row is a _fold of
    map(mul) over the stage column of one component: left to right in
    plain doubles on every CPython, which is what the generated
    straight-line step writes out. (Builtin sum() is compensated from 3.12.)
    """
    stages = [(float(_dop.C[s]), _dop.A[s, :s].tolist()) for s in range(1, _dop.N_STAGES)]
    extra = [
        (float(_dop.C[s]), _dop.A[s, :s].tolist())
        for s in range(_dop.N_STAGES + 1, _dop.N_STAGES_EXTENDED)
    ]
    weights, rows = _dop.B.tolist(), _dop.D.tolist()
    t0, t_end = float(t_span[0]), float(t_span[1])
    direction = 1.0 if t_end > t0 else -1.0
    y = [float(v) for v in y0]
    n = len(y)
    nfev = 2
    f = fun(t0, y)
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
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    h_abs = min(100.0 * h0, h1, interval, max_step)

    records = array("d")
    t, max_error = t0, 0.0
    while direction * (t - t_end) < 0.0:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"step size fell below 10 ulp of t = {t!r}")
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0.0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            K = [[v] for v in f]
            for c, a in stages:
                ys = [v + _fold(map(mul, col, a)) * h for v, col in zip(y, K)]
                for col, v in zip(K, fun(t + c * h, ys)):
                    col.append(v)
            y_new = [v + h * _fold(map(mul, col, weights)) for v, col in zip(y, K)]
            f_new = fun(t + h, y_new)
            for col, v in zip(K, f_new):
                col.append(v)
            nfev += _dop.N_STAGES
            error = _error_norm(y, y_new, K, h_abs, rtol, atol)
            if error < 1.0:
                max_error = max(max_error, error)
                factor = _factor(error)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * error ** (-1.0 / 8.0))
            rejected = True
        for c, a in extra:
            ys = [v + _fold(map(mul, col, a)) * h for v, col in zip(y, K)]
            for col, v in zip(K, fun(t + c * h, ys)):
                col.append(v)
        nfev += len(extra)
        records.append(t)
        records.append(h)
        records.extend(y)
        for v, w, col in zip(y, y_new, K):
            dy = w - v
            f_old, f_end = col[0], col[_dop.N_STAGES]
            records.extend((dy, h * f_old - dy, 2.0 * dy - h * (f_end + f_old)))
            records.extend([h * _fold(map(mul, d, col)) for d in rows])
        t, y, f = t_new, y_new, f_new
    # DenseSolution keeps the records column by column: their transpose.
    width = 2 + (1 + _dop.INTERPOLATOR_POWER) * n
    return DenseSolution(np.frombuffer(records).reshape(-1, width).T, n, t, nfev, y, max_error)


class TestTableau:
    def test_file_loaded_tableau_is_scipys(self):
        # numerics reads dop853_coefficients.py by path, skipping
        # scipy.integrate's __init__; the arrays must be scipy's own.
        assert numerics._dop is not _dop
        for name in ("A", "B", "C", "D", "E3", "E5"):
            ours, ref = getattr(numerics._dop, name), getattr(_dop, name)
            assert ours.dtype == ref.dtype and np.array_equal(ours, ref), name
        for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
            assert getattr(numerics._dop, name) == getattr(_dop, name), name

    def test_moved_file_fails_with_its_path(self, tmp_path):
        path = tmp_path / "integrate" / "_ivp" / "dop853_coefficients.py"
        with pytest.raises(ImportError, match="DOP853 tableau") as info:
            _load_tableau(path)
        assert str(path) in str(info.value)


class TestDop853:
    @pytest.mark.parametrize("span", [(0.0, 10.0), (10.0, 0.0)])
    def test_capped_steps_match_scipy(self, span):
        # max_step binds on every step, as in level_flow: the step ends are
        # the same floats as scipy's, with the same evaluation count.
        args = {"rtol": 1e-12, "atol": 1e-12, "max_step": 10.0 / 400}
        ours = dop853(_pendulum, span, [1.0, 0.0], **args)
        ref = solve_ivp(_pendulum, span, [1.0, 0.0], method="DOP853", dense_output=True, **args)
        assert np.array_equal(ours.t, ref.t)
        assert ours.steps == ref.t.size - 1 and ours.nfev == ref.nfev
        assert ours.nfev == 15 * ours.steps + 2
        t = np.linspace(0.0, 10.0, 1001)
        assert np.max(np.abs(ours.sol(t) - ref.sol(t))) <= 1e-13
        assert np.array_equal(ours.sol(span[0]), [1.0, 0.0])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rejected_steps_match_scipy(self, sign):
        # Without a cap the controller rejects steps here (scipy: 356 steps,
        # 5390 evaluations, more than 15 per step); backward is the mirror
        # image in t, which is just as stable.
        span = (0.0, 2.0 * sign)
        fun = _relaxation(sign)
        ours = dop853(fun, span, [0.0], rtol=1e-12, atol=1e-12)
        ref = solve_ivp(
            fun, span, [0.0], method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True
        )
        assert ours.steps == ref.t.size - 1
        assert ours.nfev == ref.nfev > 15 * ours.steps + 2
        t = np.linspace(*span, 1001)
        (y,) = ours.sol(t)
        assert np.max(np.abs(y - _relaxation_exact(sign * t))) <= 2e-11

    def test_scalar_query_returns_the_state(self):
        ours = dop853(_relaxation(1.0), (0.0, 2.0), [0.0], rtol=1e-12, atol=1e-12)
        y = ours.sol(1.0)
        assert y.shape == (1,)
        assert y[0] == pytest.approx(_relaxation_exact(1.0), abs=2e-11)

    def test_too_small_step_raises(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1.
        square = Rhs("def square(t, y0):\n    return (y0 * y0,)\n")
        with pytest.raises(RuntimeError, match="10 ulp"):
            dop853(square, (0.0, 2.0), [1.0], rtol=1e-12, atol=1e-12)

    def test_a_plain_callable_is_refused_before_it_runs(self):
        calls = []

        def fun(t, y):
            calls.append(t)
            return y

        with pytest.raises(TypeError, match="Rhs"):
            dop853(fun, (0.0, 1.0), [1.0], rtol=1e-9, atol=1e-9)
        assert calls == []

    @pytest.mark.parametrize(
        "call, error",
        [
            # The families refuse a non-finite parameter by name before they
            # integrate; dop853 refuses non-finite input and a NaN step,
            # which a test `h < min_step` never stops.
            ("masscap.family_bumped(1.0, math.nan)", "ValueError: eps must be finite"),
            ("masscap.family_schwarzschild(2.0, s_max=math.inf)", "ValueError: s_max must be"),
            (
                f"masscap.numerics.dop853(masscap.numerics.Rhs({_GROWTH!r}), (0.0, math.inf), "
                "[1.0], rtol=1e-9, atol=1e-9)",
                "ValueError: t_span must be finite",
            ),
            (
                "masscap.numerics.dop853(masscap.numerics.Rhs("
                "'def nan_slope(t, y0):\\n    return (nan,)\\n'), (0.0, 1.0), [1.0], "
                "rtol=1e-9, atol=1e-9)",
                "RuntimeError: dop853: step size nan is not a number",
            ),
            (
                f"masscap.numerics.dop853(masscap.numerics.Rhs({_GROWTH!r}), (0.0, 1.0), "
                "[math.inf], rtol=1e-9, atol=1e-9)",
                "ValueError: y0 must be finite",
            ),
        ],
        ids=["bumped-nan-eps", "schwarzschild-inf-s_max", "inf-t_span", "nan-derivative", "inf-y0"],
    )
    def test_non_finite_input_raises(self, call, error):
        # In a fresh interpreter with a timeout, so a run that loops forever
        # fails this test instead of hanging the suite.
        src = str(Path(masscap.__file__).resolve().parents[1])
        probe = (
            f"import math, sys; sys.path.insert(0, {src!r}); import masscap\n"
            f"try:\n    {call}\nexcept Exception as exc:\n"
            "    print(f'{type(exc).__name__}: {exc}')"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
        )
        assert out.stdout.startswith(error)

    @staticmethod
    def _assert_same_run(fun, span, y0, **args):
        ours = dop853(fun, span, y0, **args)
        ref = _loop_dop853(fun, span, y0, **args)
        assert np.array_equal(ours._columns.T, ref._columns.T)
        assert np.array_equal(ours.t, ref.t)
        assert (ours.nfev, ours.steps) == (ref.nfev, ref.steps)
        assert ours.y_end == ref.y_end and ours.max_error == ref.max_error
        return ours

    @pytest.mark.parametrize("span", [(0.0, 10.0), (10.0, 0.0)])
    def test_capped_run_is_bit_identical_to_the_loops(self, span):
        self._assert_same_run(
            _pendulum, span, [1.0, 0.0], rtol=1e-12, atol=1e-12, max_step=10.0 / 400
        )

    def test_rejections_are_bit_identical_to_the_loops(self):
        ours = self._assert_same_run(_relaxation(1.0), (0.0, 2.0), [0.0], rtol=1e-12, atol=1e-12)
        assert ours.nfev > 15 * ours.steps + 2

    def test_uncapped_pendulum_is_bit_identical_to_the_loops(self):
        ours = self._assert_same_run(_pendulum, (0.0, 50.0), [2.0, 0.0], rtol=1e-12, atol=1e-12)
        assert ours.nfev > 15 * ours.steps + 2

    def test_four_components_are_bit_identical_to_the_loops(self):
        y0, args = [1.0, 0.0, 0.0, 0.5], {"rtol": 1e-12, "atol": 1e-12}
        slow, fast = Rhs(_FOUR, rate=1.0), Rhs(_FOUR, rate=50.0)
        capped = self._assert_same_run(slow, (10.0, 0.0), y0, max_step=10.0 / 400, **args)
        assert capped.nfev == 15 * capped.steps + 2
        ours = self._assert_same_run(fast, (0.0, 2.0), y0, **args)
        assert ours.nfev > 15 * ours.steps + 2

    @pytest.mark.parametrize("max_step", [10.0 / 400, math.inf], ids=["capped", "uncapped"])
    def test_a_constant_component_is_bit_identical_to_the_loops(self, max_step):
        args = {"rtol": 1e-12, "atol": 1e-12, "max_step": max_step}
        self._assert_same_run(Rhs(_DRIFT), (0.0, 10.0), [0.5, 1.0], **args)

    @staticmethod
    def _spy_runs(monkeypatch):
        """Record (arguments, result) per generated run and (rows, rows taken) per check.

        A run returns t, nfev, y, f, raw rows, deferred rows, largest norm.
        """
        runs, checks = [], []
        kernel, check = numerics._dop_kernel, numerics._capped_steps

        def spy_kernel(text):
            run = kernel(text)

            def recorded(*args):
                runs.append((args, run(*args)))
                return runs[-1][1]

            return recorded

        def spy_check(rows, *args):
            out = check(rows, *args)
            checks.append((rows, out[0]))
            return out

        monkeypatch.setattr(numerics, "_dop_kernel", spy_kernel)
        monkeypatch.setattr(numerics, "_capped_steps", spy_check)
        return runs, checks

    @pytest.mark.parametrize(
        "width, span, alone",
        [(0.02, (0.0, 10.0), 0), (0.02, (10.0, 0.0), 0), (0.3, (10.0, 0.0), 1)],
        ids=["norm-forward", "norm-backward", "next-step"],
    )
    def test_rows_deferred_past_the_cap_are_taken_back(self, monkeypatch, width, span, alone):
        # The cap binds before the spike and after it, not across it: the
        # check after the first run rejects the rows from the spike on, and
        # one checked run resumes there and ends the span, deferring
        # nothing. The result is the loop's. The first row rejected has a
        # norm >= 1 at the narrow spike (alone, it is not taken); at the
        # wide one its norm is < 1 (alone, it is taken), and the row before
        # it proposed a step below the cap.
        runs, checks = self._spy_runs(monkeypatch)
        args = {"rtol": 1e-12, "atol": 1e-12, "max_step": 10.0 / 400}
        ours = self._assert_same_run(Rhs(_SPIKE, width=width), span, [0.0], **args)
        ((rows, taken),) = checks
        assert taken < len(rows)
        direction = math.copysign(1.0, span[1] - span[0])
        first = rows[taken : taken + 1]
        assert numerics._capped_steps(first, 1, 1e-12, 1e-12, 10.0 / 400, direction)[0] == alone
        assert [(called[-1], out[0], out[5]) for called, out in runs] == [
            (True, span[1], len(rows)),
            (False, span[1], 0),
        ]
        assert 0.9**8 < ours.max_error < 1.0

    @pytest.mark.parametrize("case", ["four", "flow"])
    def test_the_check_recomputes_each_rows_norm_and_next_step(self, monkeypatch, lab, case):
        # Row by row, on 4 and 3 components, _capped_steps finds the norm
        # and the next step that the loops compute from the same stages,
        # bit for bit: a check of one row takes it and returns both.
        warp = lab.warp("bumped", m0=1.0, eps=0.1)
        runs, _ = self._spy_runs(monkeypatch)
        if case == "four":
            dop853(Rhs(_FOUR, rate=1.0), (10.0, 0.0), [1.0, 0.0, 0.0, 0.5],
                   rtol=1e-12, atol=1e-12, max_step=10.0 / 400)
        else:
            level_flow(warp, 1.5)
        ((args, out),) = runs
        n, direction, rtol, atol, max_step = len(out[2]), args[3], args[7], args[8], args[9]
        rows = np.frombuffer(out[4]).reshape(-1, 2 + 15 * n)
        assert out[5] > len(rows) - 10
        for row in rows:
            y, w, h = row[2 : 2 + n], row[2 + n : 2 + 2 * n], row[1]
            K = row[2 + 2 * n :].reshape(_dop.N_STAGES + 1, n).T.tolist()
            error = _error_norm(y.tolist(), w.tolist(), K, abs(h), rtol, atol)
            check = numerics._capped_steps(row[None], n, rtol, atol, max_step, direction)
            assert check == (1, abs(h) * _factor(error), error)

    def test_a_deferred_step_that_raises_is_taken_back(self, monkeypatch):
        # Deferred steps at the cap run past t = 5 until sinh overflows; the
        # loop would have rejected the first of them and never got there.
        # The run stops at the error, the check rejects the rows past t = 5,
        # and the loop resumes there and integrates to the end.
        runs, checks = self._spy_runs(monkeypatch)
        args = {"rtol": 1e-12, "atol": 1e-12, "max_step": 10.0 / 400}
        self._assert_same_run(Rhs(_STIFF, rate=200.0), (0.0, 10.0), [1.0], **args)
        (_, stopped), (_, ended) = runs
        assert 5.0 < stopped[0] < 10.0 and ended[0] == 10.0
        assert len(checks[0][0]) == stopped[5] and checks[0][1] < stopped[5]

    @pytest.mark.parametrize("max_step, deferred", [(0.5, 0), (0.3, 2)])
    def test_a_deferred_step_that_the_loop_takes_raises_its_error(
        self, monkeypatch, max_step, deferred
    ):
        # The steps grow from 1e-4 to the cap, and a stage of the first
        # step at the cap (0.5) or of the third (0.3) reaches past t = 1:
        # the loop raises there, and so does a run that deferred the step,
        # once the check has taken the rows before it.
        runs, _ = self._spy_runs(monkeypatch)
        args = {"rtol": 1e-12, "atol": 1e-12, "max_step": max_step}
        with pytest.raises(ValueError, match="math domain error"):
            _loop_dop853(Rhs(_EDGE, t_end=1.0), (0.0, 2.0), [0.0], **args)
        with pytest.raises(ValueError, match="math domain error"):
            dop853(Rhs(_EDGE, t_end=1.0), (0.0, 2.0), [0.0], **args)
        ((_, out),) = runs
        assert out[0] < 1.0 and out[5] == deferred

    @pytest.mark.parametrize(
        "span, max_step, checked",
        [((1e12, 1e12 + 1.0), 1e-4, False), ((2.0**40 - 0.02, 2.0**40 + 0.02), 2e-3, True)],
        ids=["below-from-the-start", "below-past-a-binade"],
    )
    def test_a_cap_below_10_ulp_raises_the_loops_error(self, monkeypatch, span, max_step, checked):
        # Near 1e12 the cap is below 10 ulp of t from the start: the first
        # step takes 10 ulp, and the next, clamped to the cap, raises in the
        # loop. Across 2^40 the ulp doubles: the check after the run rejects
        # the first deferred row beyond it, and the loop raises there.
        runs, checks = self._spy_runs(monkeypatch)
        args = {"rtol": 1e-12, "atol": 1e-12, "max_step": max_step}
        with pytest.raises(RuntimeError, match="10 ulp") as ref:
            _loop_dop853(_pendulum, span, [1.0, 0.0], **args)
        t = str(ref.value).rpartition("t = ")[2]
        with pytest.raises(RuntimeError) as info:
            dop853(_pendulum, span, [1.0, 0.0], **args)
        assert str(info.value) == (
            f"dop853: step size {max_step!r} is not a number or below 10 ulp of t = {t}"
        )
        if checked:
            ((rows, taken),) = checks
            assert 0 < taken < len(rows) and float(t) > 2.0**40
        else:
            assert checks == []

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize(
        "tag, params, steps",
        [("schwarzschild", {"m": 2.0}, {1.2: 290, 1.5: 333, 1.8: 370}),
         ("bumped", {"m0": 1.0, "eps": 0.1}, {1.2: 338, 1.5: 379, 1.8: 415})],
        ids=["schwarzschild", "bumped"],
    )
    def test_readme_flows_defer_every_step_at_the_cap(
        self, monkeypatch, lab, tag, params, steps, p
    ):
        # The README's flows step [0, t_c] only, from the hand-off to their
        # closed-form vacuum end, and the cap t_max / 2500 binds from the
        # first step: ceil(t_c / cap) steps, or one more for a sliver, at
        # most a fifth of 2500. One run defers every step's error norm and
        # the check after it takes every row, so a change that fell back to
        # the loop fails here. The largest norm stays below 0.9**8, where
        # 0.9 error**(-1/8) falls below 1 and the cap could stop binding.
        warp, spans = lab.warp(tag, **params), []

        def spy(fun, span, y0, **args):
            spans.append(span)
            return dop853(fun, span, y0, **args)

        monkeypatch.setattr(warped, "dop853", spy)
        runs, checks = self._spy_runs(monkeypatch)
        flow = level_flow(warp, p)
        ((t_c, end),) = spans
        capped = math.ceil(t_c / (flow.t_max / 2500))
        assert end == 0.0 and steps[p] in (capped, capped + 1) and steps[p] <= 500
        assert (flow.steps, flow.nfev) == (steps[p], 15 * steps[p] + 2)
        assert [out[5] for _, out in runs] == [flow.steps]
        assert [(len(rows), taken) for rows, taken in checks] == [(flow.steps, flow.steps)]
        assert 0.0 < flow.max_error < 0.9**8

    def test_a_run_is_one_generated_call(self, monkeypatch, lab):
        # Step control and raw rows live in the generated code: dop853 calls
        # it once per run, however many steps and rejections the run takes.
        calls, kernel = [], numerics._dop_kernel

        def spy(text):
            run = kernel(text)

            def counted(*args):
                calls.append(text)
                return run(*args)

            return counted

        warp = lab.warp("bumped", m0=1.0, eps=0.1)
        monkeypatch.setattr(numerics, "_dop_kernel", spy)
        rejected = dop853(_relaxation(1.0), (0.0, 2.0), [0.0], rtol=1e-12, atol=1e-12)
        assert rejected.nfev > 15 * rejected.steps + 2 and len(calls) == 1
        flow = level_flow(warp, 1.5)
        assert flow.steps == 379 and len(calls) == 2
        assert calls[1] == warp.accel_fn.flow_rhs(1.5, 0.0, 0.0).text

    def test_run_leaves_the_dense_stages_to_one_array_call(self, monkeypatch, lab):
        # k13 .. k15 feed only the interpolant: the generated run holds none
        # of them but counts their evaluations, its raw rows are t, h, y,
        # y_new and k0 .. k12, and after the run dop853 evaluates each dense
        # stage of all steps in one call of the text's array twin.
        rows, twin_calls, kernel, function = [], [], numerics._dop_kernel, numerics._rhs_function

        def spy_kernel(text):
            run = kernel(text)

            def recorded(*args):
                out = run(*args)
                rows.append(len(out[4]))  # t, nfev, y, f, raw, deferred rows, largest error
                return out

            return recorded

        def spy_function(text):
            compiled = function(text)

            def recorded(*args, **consts):
                twin_calls.append((text, [np.shape(x) for x in args]))
                return compiled(*args, **consts)

            return recorded if text in twins else compiled

        warp = lab.warp("bumped", m0=1.0, eps=0.1)
        texts = [_RELAXATION, warp.accel_fn.flow_rhs(1.5, 0.0, 0.0).text]
        twins = [numerics._twin(text) for text in texts]
        monkeypatch.setattr(numerics, "_dop_kernel", spy_kernel)
        monkeypatch.setattr(numerics, "_rhs_function", spy_function)
        rejected = dop853(_relaxation(1.0), (0.0, 2.0), [0.0], rtol=1e-12, atol=1e-12)
        assert rejected.nfev > 15 * rejected.steps + 2
        assert rows == [rejected.steps * (2 + 15 * 1)]
        flow = level_flow(warp, 1.5)
        assert rows[1] == flow.steps * (2 + 15 * 3) and flow.nfev == 15 * flow.steps + 2
        # t and each state component: one array of a value per step.
        relaxation, flow_twin = twins
        expected = [(relaxation, [(rejected.steps,)] * 2)] * 3
        assert twin_calls == expected + [(flow_twin, [(flow.steps,)] * 4)] * 3
        for text in texts:
            source = "".join(linecache.getlines(kernel(text).__code__.co_filename))
            names = {x.id for x in ast.walk(ast.parse(source)) if isinstance(x, ast.Name)}
            assert not {x for x in names if x.startswith(("k13_", "k14_", "k15_"))}
            assert {"k12_0", "k0_0"} <= names

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="dis.get_instructions(adaptive=) is new in 3.11"
    )
    def test_kernel_is_specialized_before_its_first_run(self):
        # CPython 3.11 specializes a function's bytecode at its 8th call, and
        # a whole run is one call: unwarmed, each kernel's first seven runs
        # would execute generic bytecode.
        run = _dop_kernel("def warm(t, y0, *, rate):\n    return (-rate * y0,)\n")
        plain = [x.opname for x in dis.get_instructions(run)]
        assert [x.opname for x in dis.get_instructions(run, adaptive=True)] != plain

    def test_no_generated_source_calls_sum(self, lab):
        # Bit identity rests on the order written in the source; CPython
        # 3.12's builtin sum() is compensated and would change the doubles.
        texts = [_RELAXATION, _pendulum.text, _FOUR]  # 1, 2 and 4 components
        for tag, params in (("schwarzschild", {"m": 2.0}), ("bumped", {"m0": 1.0, "eps": 0.1})):
            accel = lab.warp(tag, **params).accel_fn
            texts += [accel.family_rhs().text, accel.flow_rhs(1.5, 4.0, 0.5).text]
        functions = [
            f
            for text in texts
            for f in (
                _dop_kernel(text),
                numerics._rhs_function(text),
                numerics._rhs_function(numerics._twin(text)),
            )
        ]
        for function in map(inspect.unwrap, functions):
            lines = linecache.getlines(function.__code__.co_filename)
            assert lines, function.__code__.co_filename
            names = {x.id for x in ast.walk(ast.parse("".join(lines))) if isinstance(x, ast.Name)}
            assert "sum" not in names, function.__code__.co_filename

    def test_no_function_dop853_or_its_oracle_runs_calls_sum(self):
        # The same hazard in the hand-written code: every function that a
        # dop853 run or _loop_dop853 enters, numerics' _rms and the
        # generated kernels included, is read for a load of builtin sum.
        ours = (numerics.__file__, __file__)
        ran = set()

        def record(frame, event, arg):
            code = frame.f_code
            if event == "call" and (
                code.co_filename in ours or code.co_filename.startswith("<masscap.numerics ")
            ):
                ran.add(code)

        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            dop853(_pendulum, (0.0, 3.0), [1.0, 0.0], rtol=1e-8, atol=1e-10)
            dop853(_relaxation(1.0), (0.0, 2.0), [0.0], rtol=1e-12, atol=1e-12)
            _loop_dop853(_pendulum, (0.0, 3.0), [1.0, 0.0], rtol=1e-8, atol=1e-10)
        finally:
            sys.setprofile(previous)
        assert {numerics.dop853.__code__, numerics._rms.__code__, _rms.__code__} <= ran
        assert _loop_dop853.__code__ in ran and any(c.co_name == "run" for c in ran)
        for code in ran:
            names = {
                x.argval
                for x in dis.get_instructions(code)
                if x.opname in ("LOAD_GLOBAL", "LOAD_NAME")
            }
            assert "sum" not in names, (code.co_name, code.co_filename)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: family_schwarzschild(2.0),
            lambda: family_bumped(1.0, 0.1, 2.0, 6.0),
            # case_report refuses this bump (R < 0), after its flow has run.
            lambda: family_bumped(0.8, -0.06, 1.5, 5.5),
        ],
        ids=["schwarzschild", "bumped", "refused-bump"],
    )
    def test_level_flow_is_bit_identical_to_the_loops(self, monkeypatch, build):
        # The step runs the flow's right-hand-side text inlined, the loops
        # call it. The family's own solve runs dop853 too: build it before
        # the spy.
        warp = build()
        calls = []

        def spy(fun, span, y0, **args):
            calls.append((fun, span, y0, args))
            return dop853(fun, span, y0, **args)

        monkeypatch.setattr(warped, "dop853", spy)
        level_flow(warp, 1.5)
        ((fun, span, y0, args),) = calls
        assert len(y0) == 3
        self._assert_same_run(fun, span, y0, **args)

    def test_a_flow_that_falls_back_takes_two_runs_and_one_check(self, monkeypatch):
        # The first step of this flow starts below the cap, so the run
        # defers every later one. The cap stops binding in the last third of
        # the steps: the check after the deferred run rejects a row, and one
        # checked run ends the flow: two runs and one check.
        warp = family_bumped(1.0, 0.5, 0.0, 3.0)
        calls = []

        def spy(fun, span, y0, **args):
            calls.append((fun, span, y0, args))
            return dop853(fun, span, y0, **args)

        monkeypatch.setattr(warped, "dop853", spy)
        runs, checks = self._spy_runs(monkeypatch)
        flow = level_flow(warp, 1.1)
        ((fun, span, y0, args),) = calls
        ((rows, taken),) = checks
        assert len(rows) == flow.steps - 1 and taken < len(rows)
        assert [(called[-1], out[0], out[5]) for called, out in runs] == [
            (True, span[1], len(rows)),
            (False, span[1], 0),
        ]
        self._assert_same_run(fun, span, y0, **args)

    def test_joined_runs_continue_each_other(self):
        # A restart point in t_span: the run from 4.0 starts from the state
        # where the run to 4.0 ended, each with its own initial step.
        args = {"rtol": 1e-12, "atol": 1e-12}
        first = dop853(_pendulum, (0.0, 4.0), [1.0, 0.0], **args)
        second = dop853(_pendulum, (4.0, 10.0), first.y_end, **args)
        both = dop853(_pendulum, (0.0, 4.0, 10.0), [1.0, 0.0], **args)
        assert both.steps == first.steps + second.steps
        assert both.nfev == first.nfev + second.nfev
        assert both.y_end == second.y_end
        assert np.array_equal(both.t, np.concatenate((first.t, second.t[1:])))
        assert np.array_equal(both._columns.T, np.concatenate((first._columns.T, second._columns.T)))
        # A point on the joint takes the step that ends there.
        assert np.array_equal(both.sol(4.0), first.sol(4.0))
        t = np.linspace(4.0, 10.0, 101)
        assert np.array_equal(both.sol(t)[:, 1:], second.sol(t)[:, 1:])

    @pytest.mark.parametrize(
        "span", [(0.0, 1.0, 1.0), (0.0, 2.0, 1.0), (0.0,), (0.0, math.nan, 1.0)]
    )
    def test_t_span_must_be_finite_and_strictly_monotone(self, span):
        with pytest.raises(ValueError, match="t_span must be"):
            dop853(_pendulum, span, [1.0, 0.0], rtol=1e-12, atol=1e-12)

    def test_array_query_is_the_pointwise_query(self):
        # An array query gathers its steps' rows in one pass; it must give
        # each point the doubles of a scalar query, step ends, joints and
        # points outside the span included.
        args = {"rtol": 1e-12, "atol": 1e-12}
        capped = dop853(_pendulum, (10.0, 0.0), [1.0, 0.0], max_step=10.0 / 400, **args)
        joined = dop853(_pendulum, (0.0, 4.0, 10.0), [1.0, 0.0], **args)
        for sol in (capped, joined):
            t = np.concatenate((np.linspace(-1.0, 11.0, 1201), sol.t))
            pointwise = np.stack([sol.sol(float(x)) for x in t], axis=1)
            assert np.array_equal(sol.sol(t).view(np.int64), pointwise.view(np.int64))

    def test_scalar_query_copies_no_records(self, monkeypatch):
        # The landing query sol(0.0) on the 2219 steps of a wide bump's
        # flow: each query reads the kept columns, so its peak is a few
        # small arrays, far below one copy of the 2219 x 26 records.
        calls = []

        def spy(*args, **kwargs):
            calls.append(dop853(*args, **kwargs))
            return calls[-1]

        warp = family_bumped(1.0, 0.1, 2.0, 2000.0)
        monkeypatch.setattr(warped, "dop853", spy)
        level_flow(warp, 1.5, n_t=64)
        (sol,) = calls
        assert sol._columns.T.shape == (2219, 26)
        tracemalloc.start()
        try:
            sol.sol(0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sol._columns.T.nbytes / 20

    def test_kernel_is_built_once_per_right_hand_side(self, lab):
        # The step is generated per right-hand-side text, with the text
        # inlined; the constants of a run are arguments of the step.
        schw = lab.warp("schwarzschild", m=2.0).accel_fn
        bump = lab.warp("bumped", m0=1.0, eps=0.1).accel_fn
        first, second = schw.flow_rhs(1.5, 4.0, 0.5), schw.flow_rhs(1.2, 10.0, -1.0)
        assert first.text == second.text and first.consts != second.consts
        assert _dop_kernel(first.text) is _dop_kernel(second.text)
        texts = [
            first.text,
            bump.flow_rhs(1.5, 4.0, 0.5).text,
            schw.family_rhs().text,
            bump.family_rhs().text,
            _RELAXATION,
            _pendulum.text,
            _FOUR,
        ]
        kernels = [_dop_kernel(text) for text in texts]
        assert len(set(kernels)) == len(set(texts)) == 7
        assert len({kernel.__code__.co_filename for kernel in kernels}) == 7

    def test_rhs_runs_its_text_with_exactly_its_constants(self):
        text = "def decay(t, y0, y1, *, rate):\n    return -rate * y0, y1\n"
        assert Rhs(text, rate=2.0)(0.0, [3.0, 1.0]) == (-6.0, 1.0)
        for consts in ({}, {"rate": 2.0, "extra": 1.0}):
            with pytest.raises(TypeError, match="takes the constants"):
                Rhs(text, **consts)

    def test_traceback_shows_the_generated_line(self):
        # Raised inside an inlined text: y' = sqrt(1 - t) past t = 1, where
        # a stage takes the root of a negative number.
        rhs = Rhs("def root(t, y0, *, t_end):\n    return (sqrt(t_end - t),)\n", t_end=1.0)
        with pytest.raises(ValueError, match="math domain error") as info:
            dop853(rhs, (0.0, 2.0), [0.0], rtol=1e-12, atol=1e-12)
        frames = traceback.extract_tb(info.tb)
        step = _dop_kernel(rhs.text).__code__.co_filename
        (kernel,) = [fr for fr in frames if fr.filename == step]
        assert step.startswith("<masscap.numerics dop853 root ")
        assert kernel.line.endswith("= (sqrt(r_t_end - r_t),)")
        assert linecache.getline(kernel.filename, kernel.lineno).strip() == kernel.line


def _assert_twin_is_its_text(text, consts, columns):
    """The array twin of text returns, per element, the scalar function's doubles.

    columns holds one 1-d array per positional parameter. An element where
    the scalar function raises must raise the same in the twin, alone; the
    others are evaluated in one array call, where no numpy warning may
    escape.
    """
    scalar = numerics._rhs_function(text)
    twin = numerics._rhs_function(numerics._twin(text))
    kept, want = [], []
    for i, args in enumerate(zip(*(c.tolist() for c in columns))):
        try:
            want.append(scalar(*args, **consts))
        except Exception as exc:
            with pytest.raises(type(exc)):
                twin(*(c[i : i + 1] for c in columns), **consts)
        else:
            kept.append(i)
    assert len(kept) > len(columns[0]) // 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = twin(*(c[kept] for c in columns), **consts)
    got = np.stack(np.broadcast_arrays(*got)) if isinstance(got, tuple) else np.asarray(got)
    want = np.array(want, dtype=float).T
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _draws(rng, lo, hi, size, special=(math.nan, math.inf, -math.inf, 0.0)):
    """Seeded uniform draws on [lo, hi] with the special values spliced in."""
    x = rng.uniform(lo, hi, size)
    x[rng.choice(size, 4 * len(special), replace=False)] = np.repeat(special, 4)
    return x


class TestArrayTwin:
    @pytest.mark.parametrize("piece", ["family", "flow"])
    @pytest.mark.parametrize(
        "tag, params",
        [("schwarzschild", {"m": 2.0}), ("bumped", {"m0": 1.0, "eps": 0.1}),
         ("bumped", {"m0": 0.8, "eps": -0.06, "s1": 1.5, "s2": 5.5})],
        ids=["schwarzschild", "bumped", "refused-bump"],
    )
    def test_twins_of_the_package_texts(self, lab, tag, params, piece):
        accel = lab.warp(tag, **params).accel_fn
        rhs = accel.family_rhs() if piece == "family" else accel.flow_rhs(1.5, 4.0, 0.5)
        rng = np.random.default_rng(20261019)
        size = 4000
        # s covers the bump's supports and their knots; phi > 0 but for the
        # spliced specials (log raises at 0 and -inf, 1/(2 phi) at 0).
        s = _draws(rng, -1.0, 9.0, size)
        s[:7] = [1.5, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0]
        s[7:9] = [math.nextafter(2.0, 0.0), math.nextafter(6.0, 9.0)]
        state = [s, _draws(rng, 0.01, 50.0, size), _draws(rng, -1.5, 1.5, size)]
        if piece == "flow":
            state.insert(0, _draws(rng, -5.0, 60.0, size))
        names = numerics._rhs_function(rhs.text).__code__.co_varnames
        consts = dict(zip(names[len(state) :], rhs.consts))
        _assert_twin_is_its_text(rhs.text, consts, state)

    @pytest.mark.parametrize(
        "tag, params",
        [("schwarzschild", {"m": 2.0}), ("bumped", {"m0": 1.0, "eps": 0.1})],
        ids=["schwarzschild", "bumped"],
    )
    def test_twins_of_the_accel_and_bump_texts(self, lab, tag, params):
        # warped's phi'' and bump run these twins for arrays.
        rng = np.random.default_rng(11)
        s = _draws(rng, 1.0, 7.0, 3000)
        s[:5] = [2.0, 3.0, 4.0, 5.0, 6.0]
        accel = lab.warp(tag, **params).accel_fn
        text = "".join(linecache.getlines(accel._scalar.__code__.co_filename))
        state = [s, _draws(rng, 0.01, 50.0, 3000), _draws(rng, -1.5, 1.5, 3000)]
        _assert_twin_is_its_text(text, accel.consts, state)
        bump = f"def bump(s, *, s1, width):\n    return {warped._BUMP}\n"
        _assert_twin_is_its_text(bump, {"s1": 2.0, "width": 1.0}, [s])

    @pytest.mark.parametrize(
        "body",
        [
            # ** and calls go through the scalar functions, libm's bits
            "x ** 2.0 + abs(y) ** 0.5, exp(x) - log1p(abs(y)) ** -1",
            # chained comparisons, a middle operand bound once, walrus order
            "(1.0 if -1.0 < (z := x * y) <= 2.0 < z * z + 1.0 else z), z",
            "(x if 0.0 <= x + y < 1.0 else -y), (w := x - y) * (w if w > 0.0 else 0.5 * w)",
            # a starred argument, a sequence per element
            "hypot(*[x, y]), atan2(y, t)",
            "divmod(x, y)",
        ],
    )
    def test_twin_rules(self, body):
        text = f"def f(t, x, y):\n    return {body}\n"
        rng = np.random.default_rng(3)
        columns = [_draws(rng, -2.0, 2.0, 600) for _ in range(3)]
        _assert_twin_is_its_text(text, {}, columns)

    def test_twin_raises_where_the_text_divides_by_zero(self):
        twin = numerics._rhs_function(numerics._twin("def f(t, x):\n    return (1.0 / x,)\n"))
        assert twin(0.0, np.array([1.0, 4.0]))[0].tolist() == [1.0, 0.25]
        for x in (0.0, -0.0):
            with pytest.raises(ZeroDivisionError):
                twin(0.0, np.array([1.0, x]))
        for zero in ("0.0", "0"):  # a literal zero is checked too
            text = f"def f(t, x):\n    return (x / {zero},)\n"
            with pytest.raises(ZeroDivisionError):
                numerics._rhs_function(numerics._twin(text))(0.0, np.array([1.0]))

    def test_keyword_arguments_have_no_twin(self):
        # Per element a keyword's value would need broadcasting too: refused.
        with pytest.raises(ValueError, match="keyword arguments: round"):
            numerics._twin("def f(t, x):\n    return (round(x, ndigits=2),)\n")


class TestPanelsAndTails:
    def test_cumulative_inverse_square(self):
        # int_1^inf x^-2 = 1, split as panels to 1e4 plus the algebraic tail.
        grid = np.geomspace(1.0, 1e4, 200)
        panels = panel_integrals(lambda x: x**-2.0, grid)
        total = right_cumulative(panels, tail=1e-4)
        assert total[0] == pytest.approx(1.0, rel=1e-12)
        assert total[-1] == 1e-4


class TestFitPowerTail:
    def test_recovers_exact_coefficients(self):
        x = np.geomspace(1.0, 1e5, 400)
        curve = SampledCurve(x, 3.0 * x**-2.0 * (1.0 + 5.0 / x))
        fit = fit_power_tail(curve, -2.0)
        assert fit.c0 == pytest.approx(3.0, rel=1e-10)
        assert fit.c1 == pytest.approx(5.0, rel=1e-6)

    def test_wrong_exponent_raises(self):
        x = np.geomspace(1.0, 1e5, 400)
        curve = SampledCurve(x, x**-2.0)
        with pytest.raises(ValueError, match="exponent"):
            fit_power_tail(curve, -3.0)

    def test_nuisance_column_removes_next_order_bias(self):
        # The 1/x**2 column absorbs the next order, so a large third
        # coefficient leaves c1 unbiased.
        x = np.geomspace(1.0, 1e3, 400)
        y = x**-1.0 * (1.0 + 2.0 / x + 40.0 / x**2)
        fit = fit_power_tail(SampledCurve(x, y), -1.0, max_residual=1.0)
        assert fit.c1 == pytest.approx(2.0, rel=1e-6)

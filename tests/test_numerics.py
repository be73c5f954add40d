"""Unit tests for the shared numerics toolbox."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from masscap import SampledCurve, Tolerances, fit_power_tail
from masscap.numerics import (
    dop853,
    integrate_linear_system,
    panel_integrals,
    right_cumulative,
    stencil_derivative,
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


class TestSampledCurve:
    def test_nodes_reproduced_exactly(self):
        x = np.linspace(0.0, 2.0, 21)
        curve = SampledCurve(x, np.sin(x))
        assert np.array_equal(curve(x), np.sin(x))

    def test_monotone_data_interpolates_monotonically(self):
        # PCHIP never overshoots, even across a sharp knee.
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = np.array([0.0, 0.1, 0.2, 5.0, 5.1])
        curve = SampledCurve(x, y)
        fine = curve(np.linspace(0.0, 4.0, 400))
        assert np.all(np.diff(fine) >= 0.0)

    def test_out_of_range_query_raises(self):
        curve = SampledCurve([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="outside the sampled range"):
            curve(1.5)

    def test_scalar_query_returns_float(self):
        curve = SampledCurve([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        assert isinstance(curve(1.0), float)

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
        assert y(1.0) == pytest.approx(math.e, rel=1e-11)

    def test_rotation_returns_after_full_turn(self):
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        span = (0.0, 2.0 * math.pi)
        cos, sin = integrate_linear_system(lambda x: A, [1.0, 0.0], span, _grid(*span))
        assert cos(2.0 * math.pi) == pytest.approx(1.0, abs=1e-10)
        assert sin(2.0 * math.pi) == pytest.approx(0.0, abs=1e-10)

    def test_backward_direction_seeds_the_right_end(self):
        (y,) = integrate_linear_system(
            lambda x: np.array([[1.0]]), [math.e], (0.0, 1.0), _grid(0.0, 1.0), "backward"
        )
        assert y(0.0) == pytest.approx(1.0, rel=1e-11)

    def test_forward_backward_round_trip(self):
        A = np.array([[0.0, 1.0], [-2.0, -0.3]])
        fwd = integrate_linear_system(lambda x: A, [1.0, -0.5], (0.0, 3.0), _grid(0.0, 3.0))
        end = [fwd[0](3.0), fwd[1](3.0)]
        back = integrate_linear_system(lambda x: A, end, (0.0, 3.0), _grid(0.0, 3.0), "backward")
        assert back[0](0.0) == pytest.approx(1.0, rel=1e-9)
        assert back[1](0.0) == pytest.approx(-0.5, rel=1e-9)

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


def _relaxation(sign):
    """y' = -50 (y - cos t) run forward (sign 1), or mirrored in t (sign -1)."""

    def fun(t, y):
        return [-50.0 * sign * (y[0] - math.cos(t))]

    return fun


def _relaxation_exact(t):
    return (2500.0 * np.cos(t) + 50.0 * np.sin(t) - 2500.0 * np.exp(-50.0 * t)) / 2501.0


def _pendulum(t, y):
    return [y[1], -math.sin(y[0])]


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
        with pytest.raises(RuntimeError, match="10 ulp"):
            dop853(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [1.0], rtol=1e-12, atol=1e-12)


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


class TestStencilDerivative:
    @pytest.mark.parametrize("order", [4, 6])
    def test_convergence_rate(self, order):
        # Grids stay coarse so the order-6 edge stencils sit well above the
        # roundoff floor of the finite differences.
        errs = []
        for n in (16, 32):
            x = np.linspace(0.0, 1.0, n + 1)
            d = stencil_derivative(np.sin(x), x[1] - x[0], order=order)
            errs.append(np.max(np.abs(d - np.cos(x))))
        rate = math.log2(errs[0] / errs[1])
        assert rate > order - 0.5

    @pytest.mark.parametrize("order", [4, 6])
    def test_exact_on_matching_polynomial(self, order):
        # An (order+1)-point stencil differentiates degree-order polynomials
        # exactly, interior and edges alike.
        x = np.linspace(-1.0, 1.0, 31)
        y = x**order
        d = stencil_derivative(y, x[1] - x[0], order=order)
        assert np.allclose(d, order * x ** (order - 1), atol=1e-10)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            stencil_derivative(np.zeros(16), 0.1, order=3)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            stencil_derivative(np.zeros(4), 0.1, order=4)

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ValueError, match="spacing"):
            stencil_derivative(np.zeros(16), 0.0)

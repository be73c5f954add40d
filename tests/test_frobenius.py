"""Unit tests for the descending series machinery at r = infinity."""

import numpy as np
import pytest

from masscap.frobenius import InfinitySingularODE, series_coefficients


def growth_ode(p):
    """Expansion at infinity of the second-order reduction for g.

    Eliminating h from the coefficient pair system leaves
    g'' + P(r) g' + Q(r) g = 0 with P = sigma/r + p2/r^2 + ...,
    Q = -sigma/r^2 + q3/r^3 + ..., sigma = (3-p)/(p-1); only these orders
    are exact, so series are limited to one coefficient. The indicial roots
    are 1 (growing) and -sigma (decaying).
    """
    s = 3.0 - p
    sigma = s / (p - 1.0)
    p2 = 5.0 - p - s**2 / (p - 1.0)
    q3 = 2.0 * s**2 / (p - 1.0)
    return InfinitySingularODE((sigma, p2), (-sigma, q3), p_order=2, q_order=3)


def potential_ode(p):
    """u'' + P u' = 0 for the radial potential on the reference slice.

    P(r) = (2/(p-1)) (1/r - (3-p)/(r^2 + r)) expands with p1 = 2/(p-1) and
    p_k = -(-1)^k 2(3-p)/(p-1) for k >= 2, exact to every order; the first
    eight are listed.
    """
    s = 3.0 - p
    coeffs = [2.0 / (p - 1.0)] + [-((-1.0) ** k) * 2.0 * s / (p - 1.0) for k in range(2, 9)]
    return InfinitySingularODE(tuple(coeffs), (), p_order=8)


class TestInfinitySingularODE:
    def test_missing_orders_are_zero(self):
        ode = InfinitySingularODE((4.0, -1.0), (2.0,))
        assert ode.p_at(1) == 4.0
        assert ode.p_at(7) == 0.0
        assert ode.q_at(2) == 2.0
        assert ode.q_at(5) == 0.0

    def test_low_orders_rejected(self):
        ode = InfinitySingularODE((1.0,))
        with pytest.raises(ValueError):
            ode.p_at(0)
        with pytest.raises(ValueError):
            ode.q_at(1)

    def test_needs_p1(self):
        with pytest.raises(ValueError, match="p1"):
            InfinitySingularODE(())

    def test_order_declarations_must_cover_listed_terms(self):
        with pytest.raises(ValueError):
            InfinitySingularODE((1.0, 2.0), p_order=1)
        with pytest.raises(ValueError):
            InfinitySingularODE((1.0,), (2.0, 3.0), q_order=2)

    def test_max_series_order_truncated_and_exact(self):
        trunc = InfinitySingularODE((1.0,), (2.0,), p_order=4, q_order=5)
        assert trunc.max_series_order() == 3
        exact = InfinitySingularODE((1.0,), (2.0,))
        assert exact.max_series_order() == np.inf


class TestIndicialRoots:
    def test_quadratic_roots(self):
        # F(b) = b(b-1) + 3b = b(b+2): roots 0 and -2.
        ode = InfinitySingularODE((3.0,))
        assert ode.indicial_value(0.0) == 0.0
        assert ode.indicial_value(-2.0) == 0.0
        assert ode.indicial_value(1.0) == 3.0

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_potential_ode_roots(self, p):
        sigma = (3.0 - p) / (p - 1.0)
        ode = potential_ode(p)
        assert ode.indicial_value(0.0) == 0.0
        assert ode.indicial_value(-sigma) == pytest.approx(0.0, abs=1e-12 * sigma**2)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_growth_ode_roots(self, p):
        sigma = (3.0 - p) / (p - 1.0)
        ode = growth_ode(p)
        assert ode.indicial_value(1.0) == pytest.approx(0.0, abs=1e-12 * sigma)
        assert ode.indicial_value(-sigma) == pytest.approx(0.0, abs=1e-12 * sigma**2)


class TestSeriesCoefficients:
    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_potential_decaying_first_coefficient(self, p):
        # The 1/r correction of the decaying potential branch.
        s = 3.0 - p
        sol = series_coefficients(potential_ode(p), -s / (p - 1.0), n=1)
        assert sol.coefficients[0] == pytest.approx(-(s**2) / (p - 1.0), rel=1e-12)
        assert not sol.resonance_flag

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_growth_first_coefficient(self, p):
        sol = series_coefficients(growth_ode(p), 1.0, n=1)
        assert sol.coefficients[0] == pytest.approx(4.0 / (3.0 - p), rel=1e-12)

    def test_growth_decaying_root_coefficient(self):
        sol = series_coefficients(growth_ode(1.5), -3.0, n=1)
        assert sol.coefficients[0] == pytest.approx(-2.4, rel=1e-12)

    def test_constant_branch_survives_resonance(self):
        # The constant solution has every series coefficient zero; at p=1.5
        # the recurrence passes through a resonant index (gap 3) but the
        # obstruction vanishes, so the series continues and only the flag
        # records the event.
        sol = series_coefficients(potential_ode(1.5), 0.0, n=5)
        assert sol.resonance_flag
        assert sol.coefficients == (0.0,) * 5

    def test_no_resonance_at_non_integer_gap(self):
        sol = series_coefficients(potential_ode(1.7), 0.0, n=5)
        assert not sol.resonance_flag
        assert sol.coefficients == (0.0,) * 5

    def test_obstructed_resonance_truncates(self):
        # Roots 0 and -2 with a q3 term: the m = 2 obstruction is nonzero,
        # so a log term would be needed and the series stops after a1.
        ode = InfinitySingularODE((3.0, 0.0), (0.0, 1.0))
        sol = series_coefficients(ode, 0.0, n=5)
        assert sol.resonance_flag
        assert sol.coefficients == (1.0,)

    def test_vanishing_obstruction_continues_with_zero(self):
        ode = InfinitySingularODE((3.0,))
        sol = series_coefficients(ode, 0.0, n=5)
        assert sol.resonance_flag
        assert sol.coefficients == (0.0,) * 5

    def test_wrong_root_rejected(self):
        with pytest.raises(ValueError, match="root"):
            series_coefficients(potential_ode(1.5), 0.5, n=1)

    def test_order_beyond_trusted_expansion_rejected(self):
        # growth_ode carries its expansions only to the orders the model
        # derivation determines, which caps the series at one coefficient.
        with pytest.raises(ValueError, match="order"):
            series_coefficients(growth_ode(1.5), 1.0, n=2)

    def test_near_resonant_perturbation_stays_clean(self):
        for p in (1.5 - 1e-6, 1.5 + 1e-6):
            sol = series_coefficients(potential_ode(p), 0.0, n=5)
            assert np.allclose(sol.coefficients, 0.0, atol=1e-12)


class TestFrobeniusSolutionEvaluation:
    def test_residual_shrinks_with_more_terms(self):
        # y'' + P y' along the truncated series at r = 100: each pair of
        # extra coefficients gains more than two orders of magnitude.
        ode = potential_ode(1.5)
        r = 100.0

        def residual(n):
            sol = series_coefficients(ode, -3.0, n=n)
            a = (1.0,) + sol.coefficients
            y1 = sum(ak * (-3.0 - k) * r ** (-4.0 - k) for k, ak in enumerate(a))
            y2 = sum(ak * (-3.0 - k) * (-4.0 - k) * r ** (-5.0 - k) for k, ak in enumerate(a))
            P = sum(c * r ** -float(j) for j, c in enumerate(ode.p_coeffs, start=1))
            return abs(y2 + P * y1)

        res = [residual(n) for n in (1, 3, 5)]
        assert res[0] > 100.0 * res[1] > 100.0 * 100.0 * res[2]

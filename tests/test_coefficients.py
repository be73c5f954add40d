"""Unit tests for the coefficient triples on the reference slice."""

import math

import numpy as np
import pytest

from masscap import (
    flux_constant,
    model_constancy,
    model_profile,
    perfect_square_residual,
    solve_decaying,
    system_residual,
)
from masscap.coefficients import growth_ode
from masscap.frobenius import series_coefficients

PI = math.pi


class TestDecayingFlavor:
    def test_sign_certificates_on_the_grid(self, lab):
        dec, _ = lab.triples(1.5)
        assert np.all(dec.h_curve.y > 0.0)
        assert np.all(dec.f_curve.y < 0.0)

    def test_tail_normalization_is_canonical(self, lab):
        # g ~ r^-sigma (1 + b1/r) with unit leading coefficient; the fitted
        # 1/r correction must match the series recurrence.
        dec, _ = lab.triples(1.5)
        b1 = series_coefficients(growth_ode(1.5), root=-3.0, n=1).coefficients[0]
        assert dec.tail_g.c0 == pytest.approx(1.0, rel=1e-9)
        assert dec.tail_g.c1 == pytest.approx(b1, rel=1e-5)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_boundary_identity(self, lab, p):
        model = lab.model(p)
        dec, _ = lab.triples(p)
        s = 3.0 - p
        f0, g0, h0 = dec.boundary_values()
        W0 = float(model.Ws_curve.y[0])
        assert -4.0 * PI * s**2 * f0 / (g0 + 2.0 * s * h0) == pytest.approx(W0, rel=1e-8)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_combination_vanishes_identically(self, lab, p):
        model = lab.model(p)
        dec, _ = lab.triples(p)
        W0 = float(model.Ws_curve.y[0])
        Q0, dev = model_constancy(dec, model)
        assert abs(Q0) <= 1e-8 * W0
        assert dev <= 1e-8 * W0

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_f_matches_closed_form(self, lab, p):
        # f = -sigma^2 (sigma+1)/(2C) [u (r-1)^2/r + (2/sigma) u + (r^2-1) u'/sigma],
        # an exact oracle independent of the solve. Past r = 1e4 the bracket
        # cancels, so only r <= 100 is compared; at p = 1.05 the solve is
        # only good to about 3e-9.
        model = lab.model(p)
        dec, _ = lab.triples(p)
        sigma = (3.0 - p) / (p - 1.0)
        r = model.r_grid[model.r_grid <= 100.0]
        u, du = model.u_at(r), model.du_exact(r)
        bracket = u * (r - 1.0) ** 2 / r + (2.0 / sigma) * u + (r**2 - 1.0) * du / sigma
        exact = -(sigma**2) * (sigma + 1.0) / (2.0 * flux_constant(p)) * bracket
        assert np.max(np.abs(dec.f_curve.y[: r.size] / exact - 1.0)) <= 1e-9

    def test_boundary_values_exact_at_three_halves(self, lab):
        dec, _ = lab.triples(1.5)
        exact = (-1.0 / 5.0, -44.0 / 125.0, 4.0 / 5.0)
        for value, form in zip(dec.boundary_values(), exact):
            assert value == pytest.approx(form, rel=1e-10)

    @pytest.mark.parametrize("p, R_max, n", [(1.05, 1e4, 64), (1.04, 1e4, 256)])
    def test_tail_fit_failure_names_p_and_grid(self, p, R_max, n):
        model = model_profile(p, R_max=R_max, n=n)
        prefix = f"p = {p:g}, R_max = {R_max:g}, n = {n}: tail fit residual"
        with pytest.raises(ValueError, match=prefix) as info:
            solve_decaying(model)
        assert isinstance(info.value.__cause__, ValueError)


class TestGrowingFlavor:
    def test_sign_pattern(self, lab):
        _, grow = lab.triples(1.5)
        assert np.all(grow.h_curve.y > 0.0)
        assert np.all(grow.g_curve.y < 0.0)
        assert grow.c1 > 0.0

    def test_growth_normalization(self, lab):
        # h ~ r/(3-p) + 1 after the c1 rescale.
        _, grow = lab.triples(1.5)
        assert 1.5 * grow.tail_h.c0 == pytest.approx(1.0, rel=1e-9)
        assert grow.tail_h.c1 == pytest.approx(1.5, rel=1e-6)

    def test_f_exponential_map_normalization(self, lab):
        _, grow = lab.triples(1.5)
        far = grow.f_curve.y[-1] - grow.c_tilde * math.exp(grow.t_samples[-1] / 1.5)
        assert far == pytest.approx(1.5, rel=1e-5)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_combination_constant_with_resolved_value(self, lab, p):
        model = lab.model(p)
        _, grow = lab.triples(p)
        s = 3.0 - p
        Q0, dev = model_constancy(grow, model)
        assert dev <= 1e-8 * abs(Q0)
        assert Q0 == pytest.approx(8.0 * PI * s**3 + 16.0 * PI * s**2 - 16.0 * PI * s, rel=1e-6)


class TestResiduals:
    @pytest.mark.parametrize("flavor_index", [0, 1], ids=["decaying", "growing"])
    def test_perfect_square_relation(self, lab, flavor_index):
        model = lab.model(1.5)
        sol = lab.triples(1.5)[flavor_index]
        res = perfect_square_residual(sol, model)
        assert float(np.max(np.abs(res.y))) <= 1e-6 * float(np.max(np.abs(sol.g_curve.y)))

    def test_system_residual_within_budget(self, lab):
        model = lab.model(1.5)
        for sol in lab.triples(1.5):
            assert system_residual(sol, model) <= 1e-6


class TestEvaluationInterface:
    def test_spline_reproduces_nodes(self, lab):
        dec, grow = lab.triples(1.5)
        for sol in (dec, grow):
            f, g, h = sol.fgh_at_t(sol.t_samples)
            assert np.allclose(f, sol.f_curve.y, rtol=1e-12)
            assert np.allclose(g, sol.g_curve.y, rtol=1e-12)
            assert np.allclose(h, sol.h_curve.y, rtol=1e-12)

    def test_asymptotic_extension_is_continuous(self, lab):
        dec, grow = lab.triples(1.5)
        for sol, rel in ((dec, 1e-5), (grow, 1e-7)):
            inside = np.array(sol.fgh_at_t(sol.t_max))
            outside = np.array(sol.fgh_at_t(sol.t_max + 1e-8))
            assert np.allclose(outside, inside, rtol=rel)

    def test_negative_t_rejected(self, lab):
        dec, _ = lab.triples(1.5)
        with pytest.raises(ValueError, match="below"):
            dec.fgh_at_t(-0.1)

    def test_extension_range_is_bounded(self, lab):
        # One extra decade of radius is trusted; far beyond that must raise.
        dec, _ = lab.triples(1.5)
        s = dec.s
        t_far = s * math.log(100.0 * dec.r_max / dec.c_tilde)
        with pytest.raises(ValueError, match="asymptotic extension"):
            dec.fgh_at_t(t_far)

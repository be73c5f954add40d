"""Unit tests for the coefficient triples on the reference slice."""

import math

import numpy as np
import pytest

import masscap.coefficients
from masscap import (
    InfinitySingularODE,
    certify_case,
    family_schwarzschild,
    fit_power_tail,
    level_flow,
    model_constancy,
    model_profile,
    perfect_square_residual,
    series_coefficients,
    solve_decaying,
    solve_growing,
    system_residual,
)

PI = math.pi
ORACLE_P = (1.05, 1.2, 1.5, 1.8, 1.95)


@pytest.fixture(scope="module")
def mp():
    return pytest.importorskip("mpmath")


def exact_triple(mp, p, r):
    """(f, g, h, t) of the decaying triple at radius r, at 50 digits.

    The r-form as written, f = k [u (r-1)^2/r + (2/sigma) u + (r^2-1) u'/sigma]
    with k = -sigma^2 (sigma+1)/(2C), and h = f' dr/dt with
    f' = k (r+1)/r^2 [u (r-1) + u' r (r+1)/sigma]; g solves Q = 0. Both forms
    cancel in double precision at large r, which 50 digits absorbs.
    t = (1-p) log u is the level-set parameter of r.
    """
    with mp.workdps(50):
        p, r = mp.mpf(p), mp.mpf(r)
        s = 3 - p
        sigma = s / (p - 1)
        C = 2 / mp.beta(sigma, sigma)
        k = -(sigma**2) * (sigma + 1) / (2 * C)
        u = mp.betainc(sigma, sigma, 0, 1 / (1 + r), regularized=True) / mp.betainc(
            sigma, sigma, 0, mp.mpf(1) / 2, regularized=True
        )
        du = -C * r ** (-2 / (p - 1)) * (1 + 1 / r) ** (-2 * sigma)
        f = k * (u * (r - 1) ** 2 / r + (2 / sigma) * u + (r**2 - 1) * du / sigma)
        drdt = -u / ((p - 1) * du)
        h = k * (r + 1) / r**2 * (u * (r - 1) + du * r * (r + 1) / sigma) * drdt
        W = 4 * mp.pi * (p - 1) ** 2 * r**2 * (du / u) ** 2
        dlog_du = -(sigma + 1) / r + 2 * sigma / (r**2 + r)
        dWdt = 2 * W * (1 / r + dlog_du - du / u) * drdt
        g = -(4 * mp.pi * s**2 * f + (p - 1) * s * h * dWdt) / W
        return f, g, h, (1 - p) * mp.log(u)


def growth_b1(p):
    """1/r coefficient of the decaying series g ~ r^-sigma (1 + b1/r)."""
    s = 3.0 - p
    sigma = s / (p - 1.0)
    p2 = 5.0 - p - s**2 / (p - 1.0)
    q3 = 2.0 * s**2 / (p - 1.0)
    return (sigma * p2 - q3) / (sigma + 2.0)


class TestDecayingFlavor:
    def test_sign_certificates_on_the_grid(self, lab):
        dec, _ = lab.triples(1.5)
        assert np.all(dec.h_curve.y > 0.0)
        assert np.all(dec.f_curve.y < 0.0)

    def test_tail_normalization_is_canonical(self, lab):
        # g ~ r^-sigma (1 + b1/r) and f ~ -r^-sigma (1 + b1/r): R (g R^sigma - 1)
        # tends to the b1 of the series recurrence of the second-order
        # reduction, whose leading expansion coefficients are listed inline.
        p, sigma = 1.5, 3.0
        s = 3.0 - p
        ode = InfinitySingularODE(
            (sigma, 5.0 - p - s**2 / (p - 1.0)), (-sigma, 2.0 * s**2 / (p - 1.0)), p_order=2, q_order=3
        )
        b1 = series_coefficients(ode, root=-sigma, n=1).coefficients[0]
        assert b1 == pytest.approx(growth_b1(p), rel=1e-12)
        assert b1 == pytest.approx(-2.4, rel=1e-12)
        model = lab.model(p)
        dec, _ = lab.triples(p)
        i = int(np.searchsorted(model.r_grid, 1e5))
        R = model.r_grid[i]
        assert R * (dec.g_curve.y[i] * R**sigma - 1.0) == pytest.approx(b1, rel=1e-4)
        assert R * (-dec.f_curve.y[i] * R**sigma - 1.0) == pytest.approx(b1, rel=1e-4)

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

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_f_matches_closed_form(self, lab, mp, p):
        # f, g and h against the 50-digit oracle at 20 grid radii spanning
        # [1, R_max].
        model = lab.model(p)
        dec = solve_decaying(model)
        index = np.unique(np.linspace(0, model.r_grid.size - 1, 20).astype(int))
        for i in index:
            exact = exact_triple(mp, p, model.r_grid[i])
            for curve, value in zip((dec.f_curve, dec.g_curve, dec.h_curve), exact):
                assert abs(curve.y[i] / float(value) - 1.0) <= 1e-10, (curve, model.r_grid[i])

    def test_boundary_values_exact_at_three_halves(self, lab):
        dec, _ = lab.triples(1.5)
        exact = (-1.0 / 5.0, -44.0 / 125.0, 4.0 / 5.0)
        for value, form in zip(dec.boundary_values(), exact):
            assert value == pytest.approx(form, rel=1e-10)

    @pytest.mark.parametrize("p, R_max, n", [(1.05, 1e4, 64), (1.04, 1e4, 256)])
    def test_coarse_grids_build_both_triples(self, p, R_max, n):
        model = model_profile(p, R_max=R_max, n=n)
        dec, grow = solve_decaying(model), solve_growing(model)
        assert np.all(dec.h_curve.y > 0.0) and np.all(grow.h_curve.y > 0.0)
        W0 = float(model.Ws_curve.y[0])
        assert abs(model_constancy(dec, model)[1]) <= 1e-8 * W0

    @pytest.mark.parametrize("p, R_max, n", [(1.05, 1e4, 64), (1.04, 1e4, 256)])
    def test_tail_fit_failure_names_p_and_grid(self, monkeypatch, p, R_max, n):
        # The growing triple's normalization fits are the only fits left.
        def failing_fit(*args, **kwargs):
            raise ValueError("tail fit residual 1 exceeds 0.001")

        model = model_profile(p, R_max=R_max, n=n)
        monkeypatch.setattr(masscap.coefficients, "fit_power_tail", failing_fit)
        prefix = f"p = {p:g}, R_max = {R_max:g}, n = {n}: tail fit residual"
        with pytest.raises(ValueError, match=prefix) as info:
            solve_growing(model)
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
        fit = fit_power_tail(grow.h_curve, 1.0)
        assert 1.5 * fit.c0 == pytest.approx(1.0, rel=1e-9)
        assert fit.c1 == pytest.approx(1.5, rel=1e-6)

    def test_f_exponential_map_normalization(self, lab):
        model = lab.model(1.5)
        _, grow = lab.triples(1.5)
        far = grow.f_curve.y[-1] - model.c_tilde * math.exp(grow.t_samples[-1] / 1.5)
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

    @pytest.mark.parametrize("p", [1.05, 1.5, 1.95])
    def test_decaying_matches_oracle_beyond_the_grid(self, mp, p):
        # The level-set radius r(t) is exact, so the closed form holds at any
        # t: inside the model's range and up to 30 R_max past it.
        model = model_profile(p)
        dec = solve_decaying(model)
        radii = (1.5, 40.0, 0.5 * model.R_max, 3.0 * model.R_max, 30.0 * model.R_max)
        exact = [exact_triple(mp, p, r) for r in radii]
        t = np.array([float(row[3]) for row in exact])
        assert t[2] < dec.t_max < t[3]
        for value, column in zip(dec.fgh_at_t(t), zip(*exact)):
            assert np.max(np.abs(value / np.array(column, dtype=float) - 1.0)) <= 1e-10

    def test_decaying_is_finite_at_any_t(self, lab):
        dec, _ = lab.triples(1.5)
        t = np.array([0.0, dec.t_max, 10.0 * dec.t_max, 1e3, 1e300])
        for values in dec.fgh_at_t(t):
            assert values.shape == t.shape and np.all(np.isfinite(values))

    def test_negative_t_rejected(self, lab):
        dec, _ = lab.triples(1.5)
        with pytest.raises(ValueError, match="below"):
            dec.fgh_at_t(-0.1)

    def test_growing_raises_beyond_its_range(self, lab):
        _, grow = lab.triples(1.5)
        assert np.all(np.isfinite(grow.fgh_at_t(grow.t_max)))
        with pytest.raises(ValueError, match="beyond the sampled range"):
            grow.fgh_at_t(np.array([1.0, grow.t_max + 1e-6]))

"""Unit tests for the coefficient triples on the reference slice."""

import dataclasses
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import betainc

from masscap import (
    constant_diagnostics,
    model_constancy,
    model_profile,
    reference_checks,
    solve_decaying,
    solve_growing,
)
from masscap.coefficients import _level_radii, at_t
from masscap.frobenius import InfinitySingularODE, series_coefficients
from masscap.numerics import fit_power_tail

PI = math.pi
ORACLE_P = (1.05, 1.2, 1.5, 1.8, 1.95)


@pytest.fixture(scope="module")
def mp():
    return pytest.importorskip("mpmath")


def exact_profile(mp, p, r):
    """(u, u', dr/dt, W, dW/dt) of the reference slice at radius r.

    Works at the caller's mpmath precision.
    """
    s = 3 - p
    sigma = s / (p - 1)
    C = 2 / mp.beta(sigma, sigma)
    u = mp.betainc(sigma, sigma, 0, 1 / (1 + r), regularized=True) / mp.betainc(
        sigma, sigma, 0, mp.mpf(1) / 2, regularized=True
    )
    du = -C * r ** (-2 / (p - 1)) * (1 + 1 / r) ** (-2 * sigma)
    drdt = -u / ((p - 1) * du)
    W = 4 * mp.pi * (p - 1) ** 2 * r**2 * (du / u) ** 2
    dlog_du = -(sigma + 1) / r + 2 * sigma / (r**2 + r)
    dWdt = 2 * W * (1 / r + dlog_du - du / u) * drdt
    return u, du, drdt, W, dWdt


def exact_triple(mp, p, r, flavor="decaying"):
    """(f, g, h, t) of a coefficient triple at radius r, at 50 digits or more.

    Decaying: the r-form as written, f = k [u (r-1)^2/r + (2/sigma) u +
    (r^2-1) u'/sigma] with k = -sigma^2 (sigma+1)/(2C), and h = f' dr/dt with
    f' = k (r+1)/r^2 [u (r-1) + u' r (r+1)/sigma]; g solves Q = 0.

    Growing: f = r + 1/r + 2s and h = (1 - 1/r^2) dr/dt, plus beta times the
    decaying (f, h), where c1 and beta reproduce the boundary seed
    (g, h) = (-1, 0.01): c1 = -(1 + 0.01 g_dec(1)/h_dec(1)) / g_0(1) with
    g_0(1) from Q at r = 1 (where h_0 = 0), beta = 0.01/(c1 h_dec(1)); g
    solves Q = 8 pi s^3 + 16 pi s^2 - 16 pi s.

    The decaying forms cancel to a part in r^2 at large r, so the working
    precision is 50 digits plus two per decade of r. t = (1-p) log u is the
    level-set parameter of r.
    """
    with mp.workdps(50 + 2 * max(0, int(math.log10(r)))):
        p, r = mp.mpf(p), mp.mpf(r)
        s = 3 - p
        sigma = s / (p - 1)
        k = -(sigma**2) * (sigma + 1) * mp.beta(sigma, sigma) / 4
        u, du, drdt, W, dWdt = exact_profile(mp, p, r)
        f = k * (u * (r - 1) ** 2 / r + (2 / sigma) * u + (r**2 - 1) * du / sigma)
        h = k * (r + 1) / r**2 * (u * (r - 1) + du * r * (r + 1) / sigma) * drdt
        Q = 0
        if flavor == "growing":
            f_dec, g_dec, h_dec, _ = exact_triple(mp, p, 1)
            Q = 8 * mp.pi * s**3 + 16 * mp.pi * s**2 - 16 * mp.pi * s
            g0 = (Q - 4 * mp.pi * s**2 * (2 + 2 * s)) / exact_profile(mp, p, mp.mpf(1))[3]
            c1 = -(1 + g_dec / h_dec / 100) / g0
            beta = 1 / (100 * c1 * h_dec)
            f = r + 1 / r + 2 * s + beta * f
            h = (1 - 1 / r**2) * drdt + beta * h
        g = (Q - 4 * mp.pi * s**2 * f - (p - 1) * s * h * dWdt) / W
        return f, g, h, (1 - p) * mp.log(u)


def check_grid_oracle(mp, sol, model, tol):
    """f, g and h of sol against the oracle at 20 grid radii over [1, R_max]."""
    index = np.unique(np.linspace(0, model.r_grid.size - 1, 20).astype(int))
    for i in index:
        exact = exact_triple(mp, model.p, model.r_grid[i], sol.flavor)
        for curve, value in zip((sol.f_curve, sol.g_curve, sol.h_curve), exact):
            assert abs(curve.y[i] / float(value) - 1.0) <= tol, (curve, model.r_grid[i])


def check_oracle_beyond_the_grid(mp, sol, model, tol, far=()):
    """at_t's f, g, h against the oracle inside the model's t-range and past it.

    The level-set radius r(t) is exact, so the closed form holds at any t:
    the radii run from 1.5 to 30 R_max, then on to the radii in far.
    """
    radii = (1.5, 40.0, 0.5 * model.R_max, 3.0 * model.R_max, 30.0 * model.R_max, *far)
    exact = [exact_triple(mp, model.p, r, sol.flavor) for r in radii]
    t = np.array([float(row[3]) for row in exact])
    assert t[2] < model.t_max < t[3]
    live, _, _, [values] = at_t(t, sol)
    assert np.all(live)
    for value, column in zip(values, zip(*exact)):
        assert np.max(np.abs(value / np.array(column, dtype=float) - 1.0)) <= tol


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
        model = lab.model(p)
        check_grid_oracle(mp, solve_decaying(model), model, 1e-10)

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


class TestGrowingFlavor:
    def test_sign_pattern(self, lab):
        _, grow = lab.triples(1.5)
        assert np.all(grow.h_curve.y > 0.0)
        assert np.all(grow.g_curve.y < 0.0)
        assert grow.c1 > 0.0

    def test_boundary_seed_at_three_halves(self, lab):
        # The seed (g, h) = (-1, 0.01), rescaled by c1 = 0.9956 * 225/1536.
        _, grow = lab.triples(1.5)
        _, g0, h0 = grow.boundary_values()
        assert h0 / g0 == pytest.approx(-0.01, rel=1e-14, abs=0.0)
        assert grow.c1 == pytest.approx(0.14583984375, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_matches_closed_form(self, lab, mp, p):
        model = lab.model(p)
        check_grid_oracle(mp, solve_growing(model), model, 1e-12)

    def test_growth_normalization(self, lab):
        # h ~ r/(3-p) + 1 after the c1 rescale.
        _, grow = lab.triples(1.5)
        fit = fit_power_tail(grow.h_curve, 1.0)
        assert 1.5 * fit.c0 == pytest.approx(1.0, rel=1e-9)
        assert fit.c1 == pytest.approx(1.5, rel=1e-6)

    def test_f_exponential_map_normalization(self, lab):
        model = lab.model(1.5)
        _, grow = lab.triples(1.5)
        far = grow.f_curve.y[-1] - model.c_tilde * math.exp(model.t_of_r.y[-1] / 1.5)
        assert far == pytest.approx(1.5, rel=1e-5)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_combination_constant_with_resolved_value(self, lab, p):
        model = lab.model(p)
        _, grow = lab.triples(p)
        s = 3.0 - p
        Q0, dev = model_constancy(grow, model)
        assert dev <= 1e-8 * abs(Q0)
        assert Q0 == pytest.approx(8.0 * PI * s**3 + 16.0 * PI * s**2 - 16.0 * PI * s, rel=1e-13)


class TestResiduals:
    @pytest.mark.parametrize("flavor_index", [0, 1], ids=["decaying", "growing"])
    def test_perfect_square_relation(self, lab, mp, flavor_index):
        # g - 2(p-2) h + (p-1)(3-p) dh/dt + 2 c_h h (dW/dt)/W = 0, with
        # c_h = (p-1)(5-p)/4. The pair system's g satisfies it for any h (a
        # symbolic test in test_warped.py proves it), so here dh/dt is the
        # derivative of the oracle's h, whose g solves Q = const instead:
        # the code's g and h meet the relation with the true dh/dt.
        for p in (1.2, 1.5, 1.8):
            sol = lab.triples(p)[flavor_index]
            s, ch = 3.0 - p, (p - 1.0) * (5.0 - p) / 4.0
            for r in (1.5, 40.0, 1e3, 1e5):
                with mp.workdps(50):
                    r_mp = mp.mpf(r)
                    step = r_mp * mp.mpf(10) ** -20
                    t = exact_triple(mp, p, r_mp, sol.flavor)[3]
                    h_up = exact_triple(mp, p, r_mp + step, sol.flavor)[2]
                    h_down = exact_triple(mp, p, r_mp - step, sol.flavor)[2]
                    _, _, drdt, W, dWdt = exact_profile(mp, mp.mpf(p), r_mp)
                    dhdt = float((h_up - h_down) / (2 * step) * drdt)
                    dlogW = float(dWdt / W)
                _, _, _, [(_, g, h)] = at_t(float(t), sol)
                g, h = float(g[0]), float(h[0])
                terms = (g, -2.0 * (p - 2.0) * h, (p - 1.0) * s * dhdt, 2.0 * ch * h * dlogW)
                assert abs(sum(terms)) <= 1e-12 * max(abs(term) for term in terms), (p, r)

    @pytest.mark.parametrize("flavor_index", [0, 1], ids=["decaying", "growing"])
    def test_first_pair_equation(self, lab, mp, flavor_index):
        # dg/dr = a h with a = (c_h (dW/dt / W)^2 - 1)/(dr/dt), that is
        # dg/dt + h = c_h h (dW/dt / W)^2 >= 0. The code takes g from the
        # second equation only, so here dg/dt is the derivative of the
        # oracle's g (which solves Q = const) and h is the code's.
        for p in (1.2, 1.5, 1.8):
            sol = lab.triples(p)[flavor_index]
            ch = (p - 1.0) * (5.0 - p) / 4.0
            for r in (1.5, 40.0, 1e3, 1e5):
                with mp.workdps(50):
                    r_mp = mp.mpf(r)
                    step = r_mp * mp.mpf(10) ** -20
                    t = exact_triple(mp, p, r_mp, sol.flavor)[3]
                    g_up = exact_triple(mp, p, r_mp + step, sol.flavor)[1]
                    g_down = exact_triple(mp, p, r_mp - step, sol.flavor)[1]
                    _, _, drdt, W, dWdt = exact_profile(mp, mp.mpf(p), r_mp)
                    dgdt = float((g_up - g_down) / (2 * step) * drdt)
                    dlogW = float(dWdt / W)
                _, _, _, [(_, _, h)] = at_t(float(t), sol)
                h = float(h[0])
                residual = dgdt + h - ch * h * dlogW**2
                assert abs(residual) <= 1e-12 * max(abs(dgdt), abs(h)), (p, r)
                assert dgdt + h > 0.0, (p, r)


class TestEvaluationInterface:
    def test_at_t_reproduces_nodes(self, lab):
        dec, grow = lab.triples(1.5)
        model = lab.model(1.5)
        live, Ws, dWs, triples = at_t(model.t_of_r.y, dec, grow)
        assert np.all(live)
        assert np.allclose(Ws, model.Ws_curve.y, rtol=1e-12)
        assert np.allclose(dWs, model.dWs_curve.y, rtol=1e-12)
        for sol, (f, g, h) in zip((dec, grow), triples, strict=True):
            assert np.allclose(f, sol.f_curve.y, rtol=1e-12)
            assert np.allclose(g, sol.g_curve.y, rtol=1e-12)
            assert np.allclose(h, sol.h_curve.y, rtol=1e-12)

    @pytest.mark.parametrize("p", [1.05, 1.5, 1.95])
    def test_decaying_matches_oracle_beyond_the_grid(self, lab, mp, p):
        model = lab.model(p)
        far = 0.9 * sys.float_info.min ** (-(p - 1.0) / 2.0)
        check_oracle_beyond_the_grid(mp, solve_decaying(model), model, 1e-10, far=(far,))

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_growing_matches_oracle_beyond_the_grid(self, lab, mp, p):
        # Up to 0.9 times the radius where r**(-2/(p-1)) leaves the normal
        # doubles; that far out, at p = 1.5, betaincinv returns nan and the
        # radius comes from the logarithmic branch of _level_radii.
        model = lab.model(p)
        far = 0.9 * sys.float_info.min ** (-(p - 1.0) / 2.0)
        check_oracle_beyond_the_grid(mp, solve_growing(model), model, 1e-12, far=(far,))

    def test_decaying_is_finite_at_any_t(self, lab):
        # The values cover the live t, a prefix of increasing t.
        dec, _ = lab.triples(1.5)
        t_max = lab.model(1.5).t_max
        t = np.array([0.0, t_max, 10.0 * t_max, 1e3, 1e300])
        live, Ws, dWs, [triple] = at_t(t, dec)
        assert live.tolist() == [True, True, True, False, False]
        for value in (Ws, dWs, *triple):
            assert value.shape == (3,) and np.all(np.isfinite(value))

    def test_negative_t_rejected(self, lab):
        dec, _ = lab.triples(1.5)
        with pytest.raises(ValueError, match="below"):
            at_t(-0.1, dec)

    def test_live_ends_at_the_normal_double_radius(self, lab):
        # At p = 1.5, r**(-4) leaves the normal doubles at r = 8.2e76, where
        # t = 264.15.
        _, grow = lab.triples(1.5)
        live, Ws, dWs, [triple] = at_t(np.array([1.0, 264.0, 264.3]), grow)
        assert live.tolist() == [True, True, False]
        values = (Ws, dWs, *triple)
        assert all(value.shape == (2,) and np.all(np.isfinite(value)) for value in values)


    def test_boundary_level_set_is_r_one(self):
        # u(1) = 1, so the level set t = 0 is r = 1 exactly. betaincinv
        # misses it at 494 of these 960 exponents, by more than 1e-13 at 60
        # and by 4.9e-8 at p = 1.911. _level_radii reads only the model's p.
        off = []
        for p in np.round(np.arange(1.04, 1.9995, 0.001), 3):
            r, live = _level_radii(SimpleNamespace(p=float(p)), np.array([0.0, 1.0]))
            if not (live.all() and r[0] == 1.0):
                off.append(float(p))
        assert off == []


class TestGridData:
    """The reference slice's special functions run once per model, on its grid."""

    def test_two_grid_sized_betainc_calls_per_model(self, monkeypatch):
        import masscap.coefficients
        import masscap.schwarzschild

        n = 512
        grid_calls = []
        for module in (masscap.schwarzschild, masscap.coefficients):
            original = module.betainc

            def spy(a, b, x, _original=original):
                if np.size(x) == n:
                    grid_calls.append((a, b))
                return _original(a, b, x)

            monkeypatch.setattr(module, "betainc", spy)
        model = model_profile(1.5, n=n)
        dec, grow = solve_decaying(model), solve_growing(model)
        constant_diagnostics(model, dec, grow)
        reference_checks(model, dec, grow)
        assert len(grid_calls) == 2

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_kept_grid_data_matches_a_fresh_evaluation_bit_for_bit(self, lab, p):
        model = lab.model(p)
        dec, grow = lab.triples(p)
        sigma = (3.0 - p) / (p - 1.0)
        r = model.r_grid.copy()
        norm = 2.0 * betainc(sigma, sigma, 0.5)
        fresh_I1 = betainc(sigma + 1.0, sigma, 1.0 / (1.0 + r)) / norm
        fresh = dataclasses.replace(model, grid_data=model.level_data(r), grid_I1=fresh_I1)
        fresh_dec, fresh_grow = solve_decaying(fresh), solve_growing(fresh)
        for kept, new in ((dec, fresh_dec), (grow, fresh_grow)):
            for name in ("f_curve", "g_curve", "h_curve"):
                assert np.array_equal(getattr(kept, name).y, getattr(new, name).y)
            assert (kept.beta, kept.c1, kept.q) == (new.beta, new.c1, new.q)
        assert constant_diagnostics(model, dec, grow) == constant_diagnostics(
            fresh, fresh_dec, fresh_grow
        )
        assert reference_checks(model, dec, grow) == reference_checks(fresh, fresh_dec, fresh_grow)

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_first_beta_ratio_is_half_the_potential_bit_for_bit(self, lab, p):
        # On the grid and at the level-set radii that at_t evaluates,
        # out to where r**(-2/(p-1)) leaves the normal doubles.
        model = lab.model(p)
        sigma = (3.0 - p) / (p - 1.0)
        far = sys.float_info.min ** (-(p - 1.0) / 2.0)
        r, live = _level_radii(model, np.linspace(0.0, 1.1 * (3.0 - p) * math.log(far), 4000))
        assert not np.all(live)
        for radii in (model.r_grid, r):
            I0 = betainc(sigma, sigma, 1.0 / (1.0 + radii)) / (2.0 * betainc(sigma, sigma, 0.5))
            assert np.array_equal(I0, model.level_data(radii).u / 2.0)

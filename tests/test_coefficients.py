"""Unit tests for the coefficient triples on the reference slice."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import betainc

from masscap import (
    constant_diagnostics,
    evaluate_Q,
    model_constancy,
    model_profile,
    reference_checks,
    solve_decaying,
    solve_growing,
)
from masscap.coefficients import at_t
from masscap.frobenius import InfinitySingularODE, series_coefficients
from masscap.numerics import SampledCurve, fit_power_tail
from masscap.verify import _nodes

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

    Growing: the beta = 0 member, f = r + 1/r + 2s and h = (1 - 1/r^2) dr/dt;
    g solves Q = 8 pi s^3 + 16 pi s^2 - 16 pi s.

    The decaying forms cancel to a part in r^2 at large r, so the working
    precision is 50 digits plus two per decade of r. t = (1-p) log u is the
    level-set parameter of r.
    """
    with mp.workdps(50 + 2 * max(0, int(math.log10(r)))):
        p, r = mp.mpf(p), mp.mpf(r)
        s = 3 - p
        sigma = s / (p - 1)
        u, du, drdt, W, dWdt = exact_profile(mp, p, r)
        if flavor == "growing":
            Q = 8 * mp.pi * s**3 + 16 * mp.pi * s**2 - 16 * mp.pi * s
            f = r + 1 / r + 2 * s
            h = (1 - 1 / r**2) * drdt
        else:
            Q = 0
            k = -(sigma**2) * (sigma + 1) * mp.beta(sigma, sigma) / 4
            f = k * (u * (r - 1) ** 2 / r + (2 / sigma) * u + (r**2 - 1) * du / sigma)
            h = k * (r + 1) / r**2 * (u * (r - 1) + du * r * (r + 1) / sigma) * drdt
        g = (Q - 4 * mp.pi * s**2 * f - (p - 1) * s * h * dWdt) / W
        return f, g, h, (1 - p) * mp.log(u)


def check_grid_oracle(mp, sol, model, tol):
    """f, g and h of sol against the oracle at 20 grid radii over [1, R_max].

    A value that the oracle gives as exactly 0 (the growing h at r = 1)
    must be exactly 0.
    """
    index = np.unique(np.linspace(0, model.r_grid.size - 1, 20).astype(int))
    for i in index:
        exact = exact_triple(mp, model.p, model.r_grid[i], sol.flavor)
        for name, value in zip("fgh", exact):
            column = getattr(sol, name)
            if value == 0:
                assert column[i] == 0.0, (name, model.r_grid[i])
            else:
                assert abs(column[i] / float(value) - 1.0) <= tol, (name, model.r_grid[i])


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
        assert np.all(dec.h > 0.0)
        assert np.all(dec.f < 0.0)

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
        assert R * (dec.g[i] * R**sigma - 1.0) == pytest.approx(b1, rel=1e-4)
        assert R * (-dec.f[i] * R**sigma - 1.0) == pytest.approx(b1, rel=1e-4)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_boundary_identity(self, lab, p):
        model = lab.model(p)
        dec, _ = lab.triples(p)
        s = 3.0 - p
        f0, g0, h0 = dec.f[0], dec.g[0], dec.h[0]
        W0 = float(model.grid_data.W[0])
        assert -4.0 * PI * s**2 * f0 / (g0 + 2.0 * s * h0) == pytest.approx(W0, rel=1e-8)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_combination_vanishes_identically(self, lab, p):
        model = lab.model(p)
        dec, _ = lab.triples(p)
        W0 = float(model.grid_data.W[0])
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
        for value, form in zip((dec.f[0], dec.g[0], dec.h[0]), exact):
            assert value == pytest.approx(form, rel=1e-10)

    @pytest.mark.parametrize("p, R_max, n", [(1.05, 1e4, 64), (1.04, 1e4, 256)])
    def test_coarse_grids_build_both_triples(self, p, R_max, n):
        model = model_profile(p, R_max=R_max, n=n)
        dec, grow = solve_decaying(model), solve_growing(model)
        assert np.all(dec.h > 0.0)
        assert grow.h[0] == 0.0 and np.all(grow.h[1:] > 0.0)
        W0 = float(model.grid_data.W[0])
        assert abs(model_constancy(dec, model)[1]) <= 1e-8 * W0


class TestGrowingFlavor:
    def test_sign_pattern(self, lab):
        _, grow = lab.triples(1.5)
        assert grow.h[0] == 0.0
        assert np.all(grow.h[1:] > 0.0)
        assert np.all(grow.g < 0.0)

    def test_boundary_values_exact_at_three_halves(self, lab):
        # f(1) = 2 + 2s and h(1) = 0 exactly; with W_s(0) = 225 pi/256, g(1)
        # = (Q0 - 4 pi s^2 f(1)) / W_s(0) = (39 pi - 45 pi) / W_s(0) = -512/75.
        _, grow = lab.triples(1.5)
        f0, g0, h0 = grow.f[0], grow.g[0], grow.h[0]
        assert (f0, h0) == (2.0 + 2.0 * 1.5, 0.0)
        assert g0 == pytest.approx(-512.0 / 75.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_matches_closed_form(self, lab, mp, p):
        model = lab.model(p)
        check_grid_oracle(mp, solve_growing(model), model, 1e-12)

    @pytest.mark.parametrize("name", ["f", "g", "h"])
    def test_non_finite_triple_refused(self, lab, name):
        # A NaN h would pass the h <= 0 positivity test of solve_decaying.
        dec, grow = lab.triples(1.5)
        for sol in (dec, grow):
            column = getattr(sol, name).copy()
            column[7] = np.nan
            with pytest.raises(ValueError, match=f"the {sol.flavor} triple is not finite"):
                dataclasses.replace(sol, **{name: column})

    def test_growth_normalization(self, lab):
        # h ~ r/(3-p) + 1.
        _, grow = lab.triples(1.5)
        fit = fit_power_tail(SampledCurve(lab.model(1.5).r_grid, grow.h), 1.0)
        assert 1.5 * fit.c0 == pytest.approx(1.0, rel=1e-9)
        assert fit.c1 == pytest.approx(1.5, rel=1e-6)

    def test_f_exponential_map_normalization(self, lab):
        model = lab.model(1.5)
        _, grow = lab.triples(1.5)
        far = grow.f[-1] - model.c_tilde * math.exp(model.t_grid[-1] / 1.5)
        assert far == pytest.approx(1.5, rel=1e-5)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_combination_constant_with_resolved_value(self, lab, p):
        model = lab.model(p)
        _, grow = lab.triples(p)
        s = 3.0 - p
        Q0, dev = model_constancy(grow, model)
        assert dev <= 1e-8 * abs(Q0)
        assert Q0 == pytest.approx(8.0 * PI * s**3 + 16.0 * PI * s**2 - 16.0 * PI * s, rel=1e-13)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_two_gates_cover_every_admissible_member(self, lab, p):
        # The growing solutions are grow + beta dec. Q is linear in the
        # triple and the decaying Q0 is 0, so along any flow Q_beta = Q_grow
        # + beta Q_dec, and the two monotonicity gates bound the slopes of
        # Q_beta by -(1 + beta) slope_slack for every beta >= 0. h_beta(1) =
        # beta h_dec(1) is negative for beta < 0: those members are not
        # admissible. evaluate_Q reads the closed forms of at_t by flavour,
        # so the member's Q along the README bump is assembled here from
        # at_t's triples, as evaluate_Q assembles each flavour's.
        model = lab.model(p)
        dec, grow = lab.triples(p)
        flow = lab.flow(p, "bumped", m0=1.0, eps=0.1)
        qd, qg = evaluate_Q(flow, dec, grow)
        assert qd.size == qg.size
        nodes = _nodes(flow)[: qg.size]
        _, Ws, dWs, [(_, gd, hd), (_, gg, hg)] = at_t(flow.t_grid[nodes], dec, grow)
        W, dWdt = flow.W.y[nodes], flow.dWdt.y[nodes]
        c = (p - 1.0) * (3.0 - p)
        slack = model.tol.slope_slack
        for beta in (-0.5, 0.1, 10.0):
            member = dataclasses.replace(grow, **{
                name: getattr(grow, name) + beta * getattr(dec, name) for name in "fgh"
            })
            h1 = member.h[0]
            assert h1 == beta * dec.h[0] and (h1 < 0.0) == (beta < 0.0)
            Q0, dev = model_constancy(member, model)
            assert Q0 == pytest.approx(grow.Q0, rel=1e-12)
            assert dev <= 1e-8 * abs(Q0)

            g, h = gg + beta * gd, hg + beta * hd
            Q = grow.Q0 + g * (W - Ws) + c * h * (dWdt - dWs)
            rounding = 64.0 * np.finfo(float).eps * (np.abs(g) * W + c * np.abs(h * dWdt))
            assert np.all(np.abs(Q - (qg + beta * qd)) <= rounding + 4.0 * np.spacing(Q0))
            if beta >= 0.0:
                assert np.min(np.diff(Q)) >= -(1.0 + beta) * slack


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
        live, Ws, dWs, triples = at_t(model.t_grid, dec, grow)
        assert np.all(live)
        assert np.allclose(Ws, model.grid_data.W, rtol=1e-12)
        assert np.allclose(dWs, model.grid_data.dWdt, rtol=1e-12)
        for sol, (f, g, h) in zip((dec, grow), triples, strict=True):
            assert np.allclose(f, sol.f, rtol=1e-12)
            assert np.allclose(g, sol.g, rtol=1e-12)
            assert np.allclose(h, sol.h, rtol=1e-12)

    @pytest.mark.parametrize("p", [1.05, 1.5, 1.95])
    def test_decaying_matches_oracle_beyond_the_grid(self, lab, mp, p):
        model = lab.model(p)
        far = 0.9 * sys.float_info.min ** (-(p - 1.0) / 2.0)
        check_oracle_beyond_the_grid(mp, solve_decaying(model), model, 1e-10, far=(far,))

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_growing_matches_oracle_beyond_the_grid(self, lab, mp, p):
        # Up to 0.9 times the radius where r**(-2/(p-1)) leaves the normal
        # doubles, far past the model grid: there ModelGeometry.level_radii
        # starts from the tail guess r = c_tilde e^(t/(3-p)) - (3-p).
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

    def test_no_triple_rejected(self):
        with pytest.raises(ValueError, match="at least one coefficient triple"):
            at_t(np.array([0.0, 1.0]))

    def test_negative_t_rejected(self, lab):
        dec, _ = lab.triples(1.5)
        with pytest.raises(ValueError, match="below"):
            at_t(-0.1, dec)

    def test_non_finite_t_rejected_by_name(self, lab):
        # NaN and inf were once dropped as "not live", which broke the
        # prefix that live promises for increasing t.
        dec, grow = lab.triples(1.5)
        with pytest.raises(ValueError, match="t = nan"):
            at_t([0.5, math.nan, 1.0, math.inf], dec, grow)
        with pytest.raises(ValueError, match="t = inf"):
            at_t([0.5, 1.0, math.inf], dec, grow)
        model = lab.model(1.5)
        with pytest.raises(ValueError, match="t = nan"):
            model.level_radii([math.nan, math.inf, -1.0])
        # The closed form reaches t = (1-p) log 2 = -0.347 only as r -> 0.
        with pytest.raises(ValueError, match=r"t = -1\.0$"):
            model.level_radii([0.5, -1.0])
        r, live = model.level_radii([-1e-12, -0.3])
        assert live.all() and 0.0 < r[1] < r[0] < 1.0

    def test_live_ends_at_the_normal_double_radius(self, lab):
        # At p = 1.5, r**(-4) leaves the normal doubles at r = 8.2e76, where
        # t = 264.15.
        _, grow = lab.triples(1.5)
        live, Ws, dWs, [triple] = at_t(np.array([1.0, 264.0, 264.3]), grow)
        assert live.tolist() == [True, True, False]
        values = (Ws, dWs, *triple)
        assert all(value.shape == (2,) and np.all(np.isfinite(value)) for value in values)


    def test_boundary_level_set_is_r_one(self):
        # u(1) = 1, so the level set t = 0 is r = 1 exactly: the guess is
        # log r_grid[0] = 0, and the Newton residual is log(B0/N) = 0 because
        # B0 at x = 1/2 and N take the same path. scipy's betaincinv misses
        # it at 494 of these 960 exponents, by 4.9e-8 at p = 1.911. The guess
        # reads the model grid, so each exponent gets a small model.
        off = []
        for p in np.round(np.arange(1.04, 1.9995, 0.001), 3):
            model = model_profile(float(p), R_max=1e4, n=64)
            r, live = model.level_radii(np.array([0.0, 1.0]))
            if not (live.all() and r[0] == 1.0):
                off.append(float(p))
        assert off == []


class TestGridData:
    """The reference slice's special functions run once per model, on its grid."""

    # Largest relative error of u and of I1 on the model grid against 40-digit
    # mpmath at the exact double x = 1/(1+r), with 1.1x (u at p = 1.5) to
    # 1.3x headroom. The route of two betainc calls, I_x(sigma, sigma) /
    # I_1/2(sigma, sigma), read 1.31e-14, 2.74e-15, 4.74e-16, 8.38e-16 and
    # 8.77e-16 for u; no bound is above 1.5 times that route's error.
    GRID_BOUNDS = {
        1.05: (1.4e-14, 1.6e-14),
        1.2: (3.5e-15, 4.2e-15),
        1.5: (5.5e-16, 7.0e-16),
        1.8: (9.0e-16, 4.0e-15),
        1.95: (8.0e-16, 4.0e-15),
    }
    # Largest |u(r(t)) e^(t/(p-1)) - 1| over t in [0, t_max] and over the
    # live t beyond, with about 1.5x headroom over scipy's betaincinv, which
    # once did the inversion. ModelGeometry.level_radii's Newton step on log r
    # reads 1.4e-14/1.1e-14 at p = 1.05, 3.3e-15/3.7e-15 at 1.2,
    # 1.1e-15/1.1e-15 at 1.5, 7.8e-16/8.9e-16 at 1.8 and 6.7e-16/6.7e-16 at
    # 1.95.
    ROUND_TRIP_BOUNDS = {
        1.05: (2.0e-12, 2.0e-12),
        1.2: (1.0e-13, 1.5e-13),
        1.5: (9.0e-15, 1.2e-13),
        1.8: (2.0e-15, 6.0e-14),
        1.95: (2.0e-15, 7.5e-14),
    }

    def test_one_grid_sized_betainc_call_per_model_and_two_per_at_t(self, monkeypatch):
        # schwarzschild is the one module that evaluates betainc: the model's
        # level data and the level-set radii of at_t both live there. On the
        # default grid one Newton step settles every radius, so at_t makes
        # two calls: that step and the reading at the radii. scipy's
        # inverse, betaincinv, is not called, nor imported by any module.
        import scipy.special

        import masscap.schwarzschild

        calls = []
        original = masscap.schwarzschild.betainc

        def spy(a, b, x):
            if np.size(x) > 1:
                calls.append((a, b, np.size(x)))
            return original(a, b, x)

        def refuse(*args):
            raise AssertionError("betaincinv was called")

        monkeypatch.setattr(masscap.schwarzschild, "betainc", spy)
        monkeypatch.setattr(scipy.special, "betaincinv", refuse)
        model = model_profile(1.5)
        dec, grow = solve_decaying(model), solve_growing(model)
        constant_diagnostics(model, dec, grow)
        reference_checks(model, dec, grow)
        assert calls == [(4.0, 3.0, model.r_grid.size)]  # I_x(sigma+1, sigma) at sigma = 3
        n = 512
        live, *_ = at_t(np.linspace(0.0, model.t_max, n), dec, grow)
        assert np.all(live)
        assert calls[1:] == [(4.0, 3.0, n)] * 2
        assert not [name for name, module in sys.modules.items()
                    if name.startswith("masscap") and hasattr(module, "betaincinv")]

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_kept_grid_data_matches_a_fresh_evaluation_bit_for_bit(self, lab, p):
        model = lab.model(p)
        dec, grow = lab.triples(p)
        fresh = dataclasses.replace(model, grid_data=model.level_data(model.r_grid.copy()))
        fresh_dec, fresh_grow = solve_decaying(fresh), solve_growing(fresh)
        for kept, new in ((dec, fresh_dec), (grow, fresh_grow)):
            for name in "fgh":
                assert np.array_equal(getattr(kept, name), getattr(new, name))
        assert constant_diagnostics(model, dec, grow) == constant_diagnostics(
            fresh, fresh_dec, fresh_grow
        )
        assert reference_checks(model, dec, grow) == reference_checks(fresh, fresh_dec, fresh_grow)

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_u_and_I1_share_one_betainc_bit_for_bit(self, lab, p):
        # u = (B1 + x^sigma (1-x)^sigma / (sigma B(sigma, sigma))) / N and
        # I1 = B1 / (2N) with B1 = I_x(sigma+1, sigma) (DLMF 8.17.20) and N
        # the numerator at x = 1/2. On the grid and at the level-set radii that
        # at_t evaluates, out to where r**(-2/(p-1)) leaves the normal doubles.
        model = lab.model(p)
        sigma = (3.0 - p) / (p - 1.0)

        def numerators(x):
            B1 = betainc(sigma + 1.0, sigma, x)
            return B1, B1 + x**sigma * (1.0 - x) ** sigma / (sigma * beta_fn(sigma, sigma))

        far = sys.float_info.min ** (-(p - 1.0) / 2.0)
        r, live = model.level_radii(np.linspace(0.0, 1.1 * (3.0 - p) * math.log(far), 4000))
        assert not np.all(live)
        N = numerators(np.array([0.5]))[1][0]
        for radii in (model.r_grid, r):
            B1, B0 = numerators(1.0 / (1.0 + radii))
            d = model.level_data(radii)
            assert np.array_equal(d.u, B0 / N)
            assert np.array_equal(d.I1, B1 / (2.0 * N))
        assert model.level_data(np.array([1.0])).u == 1.0
        assert model.level_data(1.0).u == 1.0

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_u_and_I1_match_the_oracle_on_the_grid(self, lab, mp, p):
        model = lab.model(p)
        x_grid = 1.0 / (1.0 + model.r_grid)
        err_u = err_I1 = 0.0
        with mp.workdps(40):
            sigma = mp.mpf((3.0 - p) / (p - 1.0))
            weight = 1 / (sigma * mp.beta(sigma, sigma))
            for x, u, I1 in zip(x_grid, model.grid_data.u, model.grid_data.I1):
                x = mp.mpf(float(x))
                # I_x(sigma, sigma) and, by DLMF 8.17.20, I_x(sigma+1, sigma);
                # the normalization 2 I_1/2(sigma, sigma) is exactly 1.
                I0 = mp.betainc(sigma, sigma, 0, x, regularized=True)
                exact_I1 = I0 - x**sigma * (1 - x) ** sigma * weight
                err_u = max(err_u, float(abs(u / (2 * I0) - 1)))
                err_I1 = max(err_I1, float(abs(I1 / exact_I1 - 1)))
        u_bound, I1_bound = self.GRID_BOUNDS[p]
        assert err_u <= u_bound and err_I1 <= I1_bound, (err_u, err_I1)

    # Largest relative error of du, W, dW/dr, dr/dt and d(dr/dt)/dr over
    # r in ORACLE_R against exact_profile at 40 digits, with 1.5x headroom and
    # a floor of 4e-16. A dW/dr that cancels O(1/r) terms, such as
    # 2W (1/r + dlog|u'|/dr - u'/u), reads 1.9e-7 at p = 1.05 and r = 1e6.
    ORACLE_R = (1.5, 1e2, 1e4, 1e6)
    SLICE_BOUNDS = {
        1.05: (4.6e-15, 4.9e-15, 3.3e-13, 2.5e-15, 3.4e-14),
        1.2: (7.4e-15, 4.0e-16, 3.7e-14, 4.0e-16, 2.8e-15),
        1.5: (4.0e-16, 4.4e-16, 8.9e-16, 4.0e-16, 9.9e-16),
        1.8: (1.2e-15, 9.6e-16, 4.9e-15, 7.0e-16, 2.1e-15),
        1.95: (4.9e-16, 1.2e-15, 3.5e-15, 4.8e-16, 6.0e-16),
    }

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_slice_derivatives_match_the_oracle(self, lab, mp, p):
        d = lab.model(p).level_data(np.array(self.ORACLE_R))
        errors = np.zeros(5)
        with mp.workdps(40):
            for k, r in enumerate(map(mp.mpf, self.ORACLE_R)):
                _, du, drdt, W, dWdt = exact_profile(mp, mp.mpf(p), r)
                d_drdt = mp.diff(lambda q: exact_profile(mp, mp.mpf(p), q)[2], r)
                exact = (du, W, dWdt / drdt, drdt, d_drdt)
                code = (d.du, d.W, d.dWdr, d.drdt, d.d_drdt)
                for i, (value, oracle) in enumerate(zip(code, exact)):
                    errors[i] = max(errors[i], float(abs(value[k] / oracle - 1)))
        assert np.all(errors <= self.SLICE_BOUNDS[p]), errors.tolist()

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_level_radii_round_trip_through_u(self, lab, p):
        # u at the radius level_radii gives level set t is e^(-t/(p-1)), up
        # to where r**(-2/(p-1)) leaves the normal doubles; from p = 1.11 on
        # that reaches past r = 1e17, where betaincinv once returned nan.
        model = lab.model(p)
        far = (3.0 - p) * math.log(sys.float_info.min ** (-(p - 1.0) / 2.0))
        ranges = (np.linspace(0.0, model.t_max, 4001), np.linspace(model.t_max, far, 4001))
        for t, bound in zip(ranges, self.ROUND_TRIP_BOUNDS[p]):
            r, live = model.level_radii(t)
            error = np.abs(model.level_data(r).u / np.exp(-t[live] / (p - 1.0)) - 1.0)
            assert np.max(error) <= bound, (p, float(np.max(error)))
        assert np.any(r > 1e17) == (p > 1.11)

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_level_radii_round_trip_on_a_coarse_grid(self, p):
        # On the coarsest model (64 radii up to 1e4) the Hermite guess needs
        # a second Newton step at about 40 % of these t (a third at 13 t at
        # p = 1.05); past r = 1e4 the tail guess needs one. The bounds are
        # the default grid's (ROUND_TRIP_BOUNDS): the guess sets the step
        # count, not the radius.
        model = model_profile(p, R_max=1e4, n=64)
        far = (3.0 - p) * math.log(sys.float_info.min ** (-(p - 1.0) / 2.0))
        ranges = (np.linspace(0.0, model.t_max, 4001), np.linspace(model.t_max, far, 4001))
        for t, bound in zip(ranges, TestGridData.ROUND_TRIP_BOUNDS[p]):
            r, live = model.level_radii(t)
            assert live[0] and np.all(np.diff(live.astype(int)) <= 0)  # a prefix
            error = np.abs(model.level_data(r).u / np.exp(-t[live] / (p - 1.0)) - 1.0)
            assert np.max(error) <= bound, (p, float(np.max(error)))
        assert r[0] == pytest.approx(model.R_max, rel=1e-12) and np.all(r[1:] > model.R_max)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_level_radii_match_betaincinv_on_the_readme_flows(self, lab, p):
        # scipy's betaincinv, an independent inversion, as the oracle: on
        # the gated nodes of the README's two flows the radii agree to 7.1e-15
        # relative (p = 1.2), and Newton's round trip through u is the tighter
        # (3.2e-15 against 6.5e-14 at p = 1.2).
        from scipy.special import betaincinv

        model = lab.model(p)
        sigma = (3.0 - p) / (p - 1.0)
        for tag, params in (("schwarzschild", {"m": 2.0}), ("bumped", {"m0": 1.0, "eps": 0.1})):
            flow = lab.flow(p, tag, **params)
            t = flow.t_grid[_nodes(flow)]
            r, live = model.level_radii(t)
            assert live.all() and r[0] == 1.0
            x = betaincinv(sigma, sigma, np.exp(-t / (p - 1.0)) * betainc(sigma, sigma, 0.5))
            oracle = 1.0 / x[1:] - 1.0
            assert np.max(np.abs(r[1:] / oracle - 1.0)) <= 1.5e-14, (p, tag)
            target = np.exp(-t[1:] / (p - 1.0))
            ours, theirs = (np.abs(model.level_data(v).u / target - 1.0) for v in (r[1:], oracle))
            assert np.max(ours) <= np.max(theirs), (p, tag)

    def test_level_radii_take_a_scalar_a_list_and_an_array(self, lab):
        # As level_data does: each form gives the array's radii bit for bit,
        # at t = 0, on and past the model grid and past the live range.
        model = lab.model(1.5)
        t = np.array([0.0, 1.0, 100.0, 1000.0])
        r, live = model.level_radii(t)
        assert live.tolist() == [True, True, True, False] and r[2] > 1e17
        listed = model.level_radii(t.tolist())
        assert np.array_equal(listed[0].view(np.int64), r.view(np.int64))
        assert np.array_equal(listed[1], live)
        for k, x in enumerate(t.tolist()):
            for scalar in (x, np.float64(x)):
                r_k, live_k = model.level_radii(scalar)
                assert live_k.tolist() == [live[k]]
                assert np.array_equal(r_k.view(np.int64), r[k : k + 1].view(np.int64))

"""Unit tests for warped-product geometries and their level-set flows."""

import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import OdeSolution, solve_ivp
from scipy.special import beta, betaincinv

from masscap import (
    capacity_Cp,
    certify_case,
    family_bumped,
    family_flat_exterior,
    family_schwarzschild,
    flux_constant,
    level_flow,
    masses,
    radial_p_harmonic,
    scalar_curvature,
)
from masscap import numerics, warped
from masscap.warped import spline_bump
from masscap.numerics import dop853, panel_integrals
from conftest import curvature_term, perfect_square_remainder, w_identity
from test_numerics import _loop_dop853

PI = math.pi


class TestSplineBump:
    def test_support_and_normalization(self):
        bump = spline_bump(2.0, 6.0)
        s = np.linspace(0.0, 10.0, 2001)
        vals = bump(s)
        assert np.all(vals[(s < 2.0) | (s > 6.0)] == 0.0)
        assert np.max(vals) == pytest.approx(1.0, rel=1e-12)
        assert bump(4.0) == pytest.approx(1.0, rel=1e-12)

    def test_scalar_input_returns_float(self):
        assert isinstance(spline_bump(0.0, 1.0)(0.5), float)

    def test_scalar_and_array_paths_agree_bit_for_bit(self):
        # The ODE right-hand sides take the scalar branch, the sampled
        # curvature the array branch: they must give the very same doubles.
        s1, s2 = 2.0, 6.0
        bump = spline_bump(s1, s2)
        knots = [s1 + k * (s2 - s1) / 4.0 for k in range(5)]
        s = np.concatenate((np.linspace(s1 - 1.0, s2 + 1.0, 20001), knots))
        from_array = bump(s)
        from_float = np.array([bump(float(x)) for x in s])
        from_float64 = np.array([bump(np.float64(x)) for x in s])
        assert np.array_equal(from_float.view(np.int64), from_array.view(np.int64))
        assert np.array_equal(from_float64.view(np.int64), from_array.view(np.int64))
        assert type(bump(np.float64(3.0))) is float
        assert [bump(k) for k in knots] == [0.0, 0.25, 1.0, 0.25, 0.0]

    def test_smooth_at_the_support_edges(self):
        # C^2 matching: values and slopes tend to zero at both knots.
        bump = spline_bump(2.0, 6.0)
        eps = 1e-6
        assert bump(2.0 + eps) < 1e-11
        assert bump(6.0 - eps) < 1e-11


class TestFamilySolve:
    @pytest.mark.parametrize(
        "build, pieces",
        [
            (lambda: family_schwarzschild(2.0), 1),
            (lambda: family_bumped(1.0, 0.1, 2.0, 6.0), 6),
        ],
        ids=["schwarzschild", "bumped"],
    )
    def test_pieces_match_scipy(self, monkeypatch, build, pieces):
        # One dop853 call whose t_span restarts at the knots. Each piece
        # between them is the stage loops' run from where the last piece
        # ended (the step runs the family's right-hand-side text inlined,
        # the loops call it), the solution is those runs joined bit for bit,
        # each piece takes scipy's steps and evaluations, and the solution
        # is scipy's up to rounding.
        calls = []

        def spy(fun, span, y0, **args):
            calls.append((fun, span, list(y0), args, dop853(fun, span, y0, **args)))
            return calls[-1][-1]

        monkeypatch.setattr(warped, "dop853", spy)
        warp = build()
        ((fun, span, y0, args, sol),) = calls
        assert args == {"rtol": 1e-12, "atol": 1e-12}
        assert len(span) == pieces + 1 and span[0] == 0.0 and span[-1] == warp.s_max
        loops, ts, interpolants = [], [0.0], []
        for a, b in zip(span, span[1:]):
            loop = _loop_dop853(fun, (a, b), y0, **args)
            ref = solve_ivp(fun, (a, b), y0, method="DOP853", dense_output=True, **args)
            assert loop.steps == ref.t.size - 1 and loop.nfev == ref.nfev
            assert np.max(np.abs(np.asarray(loop.y_end) - ref.y[:, -1])) <= 1e-14 * ref.y[0, -1]
            loops.append(loop)
            y0 = loop.y_end
            ts.extend(ref.sol.ts[1:])
            interpolants.extend(ref.sol.interpolants)
        assert np.array_equal(sol._columns.T, np.concatenate([run._columns.T for run in loops]))
        joints = [run.t[1:] for run in loops]
        assert np.array_equal(sol.t, np.concatenate([loops[0].t[:1], *joints]))
        assert sol.steps == warp.steps == sum(run.steps for run in loops)
        assert sol.nfev == warp.nfev == sum(run.nfev for run in loops)
        assert sol.y_end == loops[-1].y_end
        phi, dphi = OdeSolution(ts, interpolants)(warp.s_grid)
        assert np.max(np.abs(warp.phi / phi - 1.0)) <= 1e-14
        assert np.max(np.abs(warp.dphi - dphi)) <= 2e-15

    @pytest.mark.parametrize(
        "build, events",
        [
            (lambda: family_schwarzschild(2.0), ["dop853", 1]),
            (lambda: family_bumped(1.0, 0.1, 2.0, 6.0), ["dop853", 6]),
            # The family's solve, then the flow's.
            (lambda: level_flow(family_schwarzschild(2.0), 1.5, n_t=64), ["dop853", 1] * 2),
        ],
        ids=["schwarzschild", "bumped", "flow"],
    )
    def test_each_solve_interpolates_once(self, monkeypatch, build, events):
        # The knots restart runs, not the dense output: each dop853 call
        # assembles the interpolants of all its pieces' steps in one pass.
        seen, interpolants = [], numerics._interpolants

        def spy(fun, span, y0, **args):
            seen.append("dop853")
            return dop853(fun, span, y0, **args)

        def counted(fun, raws, n):
            seen.append(len(raws))
            return interpolants(fun, raws, n)

        monkeypatch.setattr(warped, "dop853", spy)
        monkeypatch.setattr(numerics, "_interpolants", counted)
        build()
        assert seen == events

    @pytest.mark.parametrize(
        "build",
        [lambda: family_schwarzschild(2.0), lambda: family_bumped(1.0, 0.1, 2.0, 6.0)],
        ids=["schwarzschild", "bumped"],
    )
    def test_phi_fn_is_the_solution_first_component(self, monkeypatch, build):
        # The capacity quadrature reads phi alone: on the Gauss nodes of
        # panel_integrals and at a scalar, the doubles of sol(x)[0].
        sols = []

        def spy(fun, span, y0, **args):
            sols.append(dop853(fun, span, y0, **args))
            return sols[-1]

        monkeypatch.setattr(warped, "dop853", spy)
        warp = build()
        (sol,) = sols
        nodes = []
        panel_integrals(lambda x: nodes.append(x) or x, warp.s_grid)
        (x,) = nodes
        assert x.size == 12 * (warp.s_grid.size - 1)
        assert np.array_equal(warp.phi_fn(x).view(np.int64), sol.sol(x)[0].view(np.int64))
        scalar = warp.phi_fn(3.7)
        assert scalar.shape == () and scalar.view(np.int64) == sol.sol(3.7)[0].view(np.int64)

    @pytest.mark.parametrize("row, name", [(0, "phi"), (1, "phi'")], ids=["phi", "dphi"])
    def test_non_finite_sample_is_refused_by_name(self, monkeypatch, row, name):
        # A NaN passes both the positivity and the phi' < 1 test, so the
        # samples are checked for finiteness first, each by its name.
        real = warped.dop853

        def poisoned(*args, **kwargs):
            dense = real(*args, **kwargs)

            def sample(s):
                out = dense.sol(s)
                out[row, 7] = np.nan
                return out

            return SimpleNamespace(sol=sample, nfev=dense.nfev, steps=dense.steps)

        monkeypatch.setattr(warped, "dop853", poisoned)
        with pytest.raises(RuntimeError, match=f"^warping factor: {name} is not finite"):
            family_bumped(1.0, 0.1, 2.0, 6.0)

    def test_failing_dense_stage_is_a_failed_integration(self, monkeypatch):
        # The dense-output stages run after the step loops, in the family
        # text's array twin; an error there still names the failed solve.
        real = numerics._twin

        def twin(text):
            if not text.startswith("def family("):
                return real(text)
            return "def family(*args, **consts):\n    raise OverflowError('math range error')\n"

        monkeypatch.setattr(numerics, "_twin", twin)
        with pytest.raises(RuntimeError, match="warping-factor integration failed: math range"):
            family_bumped(1.0, 0.1, 2.0, 6.0)


class TestSchwarzschildFamily:
    def test_boundary_is_a_minimal_sphere(self, lab):
        warp = lab.warp("schwarzschild", m=2.0)
        assert warp.phi0 == pytest.approx(4.0, rel=1e-14)
        assert float(warp.dphi[0]) == 0.0
        assert warp.minimal_boundary

    def test_hawking_mass_constant_and_flat_curvature(self, lab):
        warp = lab.warp("schwarzschild", m=2.0)
        hawk, adm = masses(warp)
        assert np.max(np.abs(hawk - 2.0)) <= 1e-8
        assert adm == pytest.approx(2.0, rel=1e-9)
        assert np.max(np.abs(scalar_curvature(warp))) <= 1e-12

    def test_capacity_scale_law(self, lab):
        # C_p(m) = K_p (m/2)^(3-p): two masses pin the scaling exponent.
        p = 1.5
        cap2 = capacity_Cp(lab.warp("schwarzschild", m=2.0), p)
        for m in (1.0, 5.0):
            cap = capacity_Cp(lab.warp("schwarzschild", m=m), p)
            assert cap / cap2 == pytest.approx((m / 2.0) ** (3.0 - p), rel=1e-10)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            family_schwarzschild(0.0)

    def test_overflow_fails_as_an_integration_error(self):
        # phi(0) = 2e-300 sends phi' past sqrt(max float): the plain-float
        # step overflows, which must surface as the solve's RuntimeError.
        with pytest.raises(RuntimeError, match="warping-factor integration failed"):
            family_schwarzschild(1e-300)


class TestBumpedFamily:
    def test_curvature_matches_closed_form_exactly(self, lab):
        warp = lab.warp("bumped", m0=1.0, eps=0.1)
        bump = spline_bump(2.0, 6.0)
        target = 2.0 * 0.1 * bump(warp.s_grid) / warp.phi**2
        assert np.max(np.abs(scalar_curvature(warp) - target)) <= 1e-12

    def test_vacuum_plateaus_of_the_hawking_mass(self, lab):
        warp = lab.warp("bumped", m0=1.0, eps=0.1)
        hawk, adm = masses(warp)
        inner = hawk[warp.s_grid <= 2.0]
        outer = hawk[warp.s_grid >= warp.end_s]
        assert (warp.end_s, lab.warp("schwarzschild", m=2.0).end_s) == (6.0, 0.0)
        assert np.max(np.abs(inner - 1.0)) <= 1e-9
        assert np.ptp(outer) <= 1e-8
        assert adm > 1.0

    @pytest.mark.parametrize("eps", [0.1, -0.1])
    def test_accel_scalar_path_is_its_array_path(self, eps):
        # accel_fn runs the family's scalar text for a float, which the
        # solves paste inlined and which outside (s1, s2) is the vacuum phi''
        # alone in place of the bump; scalar_curvature calls it with arrays.
        # Both must give the very same doubles.
        s1, s2 = 2.0, 6.0
        warp = family_bumped(1.0, eps, s1, s2)
        knots = [s1 + k * (s2 - s1) / 4.0 for k in range(5)]
        around = [math.nextafter(x, d) for x in (s1, s2) for d in (-math.inf, math.inf)]
        s = np.array(sorted([0.0, *knots, *around, warp.s_max]))
        phi = np.interp(s, warp.s_grid, warp.phi)
        dphi = np.interp(s, warp.s_grid, warp.dphi)
        from_array = warp.accel_fn(s, phi, dphi)
        from_float = np.array(
            [warp.accel_fn(float(a), float(b), float(c)) for a, b, c in zip(s, phi, dphi)]
        )
        assert np.array_equal(from_float.view(np.int64), from_array.view(np.int64))
        assert np.count_nonzero(spline_bump(s1, s2)(s)) == 5  # three knots, two neighbours

    def test_one_build_compiles_each_text_once(self):
        # accel_fn runs the family's own function and twin, so a build
        # compiles the family's and the flow's text, each as a function and
        # an array twin, and generates one run per text.
        compilers = (numerics._rhs_function, numerics._twin, numerics._dop_kernel)
        for compile_ in compilers:
            compile_.cache_clear()
        family_bumped(1.0, 0.1)
        assert [f.cache_info().misses for f in compilers] == [4, 2, 2]

    @pytest.mark.parametrize(
        "build",
        [lambda: family_schwarzschild(2.0), lambda: family_bumped(1.0, 0.1, 2.0, 6.0),
         lambda: family_bumped(0.8, -0.06, 1.5, 5.5)],
        ids=["schwarzschild", "bumped", "refused-bump"],
    )
    def test_accel_paths_agree_on_many_points(self, build):
        # The solves run accel_fn's scalar text, scalar_curvature and
        # level_flow its array path: over 10^5 seeded states, the support's
        # ends, the knots and their neighbours, nan and +-inf included, both
        # give the same doubles. A square written phi'**2 failed here: libm's pow and
        # numpy's square differ in the last bit on about 0.1 % of doubles.
        warp = build()
        s1, s2 = warp.params.get("s1", 2.0), warp.params.get("s2", 6.0)
        knots = [s1 + k * (s2 - s1) / 4.0 for k in range(5)]
        rng = np.random.default_rng(20261019)
        size = 100_000
        s = rng.uniform(-1.0, s2 + 2.0, size)
        s[:15] = knots + [math.nextafter(x, d) for x in knots for d in (-math.inf, math.inf)]
        phi = rng.uniform(0.05, 60.0, size)
        dphi = rng.uniform(-1.0, 1.0, size)
        for x in (s, phi, dphi):  # no phi = 0, where the scalar text raises
            x[rng.choice(size, 30, replace=False)] = np.repeat([math.nan, math.inf, -math.inf], 10)
        from_array = warp.accel_fn(s, phi, dphi)
        from_float = np.array(
            [warp.accel_fn(*args) for args in zip(s.tolist(), phi.tolist(), dphi.tolist())]
        )
        assert np.array_equal(from_float.view(np.int64), from_array.view(np.int64))

    def test_landing_case_of_a_knot_split_solve(self, lab):
        # The bump's third derivative jumps at its five knots; one solve
        # across them put the Hawking mass 1.2e-8 low and the backward flow
        # then missed the boundary. The reference restarts at each knot at
        # a tighter tolerance.
        m0, eps, s1, s2, p = 0.7926, 0.1981, 1.7239, 6.1877, 1.7
        warp = family_bumped(m0, eps, s1, s2)
        dec, grow = lab.triples(p)
        result = certify_case(warp, lab.model(p), level_flow(warp, p), dec, grow)
        assert result.passed, [c for c in result.checks if not c["passed"]]

        bump = spline_bump(s1, s2)

        def rhs(s, y):
            return [y[1], (1.0 - y[1] ** 2) / (2.0 * y[0]) - eps / (2.0 * y[0]) * bump(s)]

        bounds = [0.0] + [s1 + k * (s2 - s1) / 4.0 for k in range(5)] + [warp.s_max]
        y = [2.0 * m0, 0.0]
        for a, b in zip(bounds, bounds[1:]):
            y = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
        _, adm = masses(warp)
        assert adm == pytest.approx(0.5 * y[0] * (1.0 - y[1] ** 2), rel=1e-11)

    def test_bump_from_the_boundary_builds(self):
        warp = family_bumped(1.0, 0.1, 0.0, 6.0)
        assert warp.phi0 == 2.0
        assert masses(warp)[1] > 1.0

    def test_negative_eps_dips_below_zero(self):
        warp = family_bumped(1.0, -0.05)
        assert float(np.min(scalar_curvature(warp))) < -1e-3

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"m0": 0.0, "eps": 0.1}, "base mass"),
            ({"m0": 1.0, "eps": 0.1, "s1": -1.0}, "support"),
            ({"m0": 1.0, "eps": 0.1, "s1": 3.0, "s2": 2.0}, "support"),
            ({"m0": 1.0, "eps": 0.1, "s2": 4000.0}, "inside the grid"),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            family_bumped(**kwargs)


@pytest.mark.parametrize(
    "build",
    [
        lambda **grid: family_schwarzschild(1.0, **grid),
        lambda **grid: family_bumped(1.0, 0.1, **grid),
        family_flat_exterior,
    ],
    ids=["schwarzschild", "bumped", "flat"],
)
@pytest.mark.parametrize(
    "grid, match",
    [
        ({"s_max": -10.0}, "s_max must be positive, got -10.0"),
        ({"s_max": -1.0}, "s_max must be positive, got -1.0"),
        ({"s_max": 0.0}, "s_max must be positive, got 0.0"),
        ({"n": 0}, "n must be at least 2, got 0"),
        ({"n": 1}, "n must be at least 2, got 1"),
    ],
)
def test_family_grid_refused_by_name(build, grid, match):
    # Refused before the solve, whose own errors name neither argument.
    with pytest.raises(ValueError, match=match):
        build(**grid)


class TestFlatExterior:
    def test_profile_and_mass(self, lab):
        flat = lab.warp("flat")
        assert not flat.minimal_boundary
        assert np.allclose(flat.phi, 1.0 + flat.s_grid, rtol=1e-14)
        assert masses(flat)[1] == pytest.approx(0.0, abs=1e-12)

    def test_level_flow_refuses_nonminimal_boundary(self, lab):
        with pytest.raises(ValueError, match="minimal"):
            level_flow(lab.warp("flat"), 1.5)


class TestRadialPotential:
    def test_shape_and_flux(self, lab):
        # The bumped case at p = 1.6 is one where normalizing by the
        # reciprocal, C * integral, rounds u[0] to 1 - 2**-53.
        cases = [
            (lab.warp("schwarzschild", m=2.0), 1.5),
            (lab.warp("bumped", m0=1.0, eps=0.1), 1.6),
        ]
        for warp, p in cases:
            u, C = radial_p_harmonic(warp, p)
            assert u[0] == 1.0
            assert np.all(np.diff(u) < 0.0)
            assert C > 0.0
            assert u[-1] < 1e-2

    def test_capacity_near_p_one_matches_its_closed_forms(self, lab):
        # At p = 1.02, u(s_max) underflows (see the next test), yet C_p
        # needs only the boundary value of the flux integral.
        p = 1.02
        kappa = 2.0 / (p - 1.0)
        flat = 4.0 * math.pi * (kappa - 1.0) ** (p - 1.0)
        assert capacity_Cp(lab.warp("flat"), p) == pytest.approx(flat, rel=1e-12)
        m = 2.0
        vacuum = 4.0 * math.pi * ((2.0 * m) ** (kappa - 1.0) / beta(kappa - 1.0, 0.5)) ** (p - 1.0)
        assert capacity_Cp(lab.warp("schwarzschild", m=m), p) == pytest.approx(vacuum, rel=1e-12)
        with pytest.raises(ValueError, match="underflows"):
            radial_p_harmonic(lab.warp("flat"), p)
        # At p = 1.001, phi(0)**(-2/(p-1)) = 4**(-2000) underflows too.
        with pytest.raises(ValueError, match="capacity integral underflows"):
            capacity_Cp(lab.warp("schwarzschild", m=m), 1.001)

    def test_capacity_radius_tends_to_the_area_radius(self, lab):
        # As p -> 1 the capacity radius 2 (C_p/K_p)^(1/(3-p)) tends to the
        # area radius phi0/2 of the boundary, the Riemannian Penrose end of
        # the mass bound. model_profile refuses at p = 1.02, so K_p is
        # 4 pi C^(p-1) from the flux constant alone. The sign of the gap is
        # not asserted: no theorem for it is cited.
        def gap(warp, p):
            Kp = 4.0 * math.pi * flux_constant(p) ** (p - 1.0)
            return 2.0 * (capacity_Cp(warp, p) / Kp) ** (1.0 / (3.0 - p)) - 0.5 * warp.phi0

        warps = (
            lab.warp("schwarzschild", m=2.0),
            lab.warp("bumped", m0=1.0, eps=0.1, s1=2.0, s2=6.0),
            lab.warp("bumped", m0=0.5, eps=1.0, s1=1.0, s2=4.0),
        )
        for warp in warps:
            assert abs(gap(warp, 1.02)) <= 1e-12 * 0.5 * warp.phi0, warp.params
        # A bump that touches the boundary: 1.0e-3 at p = 1.2 down to 4.5e-6.
        touching = lab.warp("bumped", m0=1.0, eps=0.1, s1=0.0, s2=3.0)
        gaps = [abs(gap(touching, p)) for p in (1.2, 1.1, 1.05, 1.03, 1.02)]
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < 1e-5


    @pytest.mark.parametrize("p", [1.02, 1.001])
    def test_underflow_near_p_one_names_p_and_s_max(self, lab, p):
        # phi**(-2/(p-1)) underflows on the default domain: at s_max for
        # p = 1.02, and already at the boundary for p = 1.001.
        warp = lab.warp("schwarzschild", m=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"p = {p:g}: .* at s_max = 5000"):
                level_flow(warp, p)


class TestLevelFlow:
    def test_level_parameter_conventions(self, lab):
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        assert flow.t_grid[0] == 0.0
        assert flow.u.y[0] == 1.0
        # u and t are tied by the defining reparametrization, exactly.
        assert np.array_equal(flow.u.y, np.exp(-flow.t_grid / 0.5))

    def test_minimal_boundary_flux_vanishes(self, lab):
        # The flux of H |grad w| through a level sphere is a positive
        # multiple of H = 2 phi'/phi, so it vanishes where H does: on the
        # minimal boundary, the first sample of the flow.
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        assert abs(float(flow.H.y[0])) <= 1e-11

    def test_arclength_round_trip(self, lab):
        # The backward pass runs from the outer end s_max to the boundary
        # s = 0, with s(t) strictly increasing in between.
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        s = flow.s_of_t.y
        assert s[0] == 0.0 and s[-1] == pytest.approx(lab.warp("schwarzschild", m=2.0).s_max)
        assert np.all(np.diff(s) > 0.0)

    def test_non_monotone_arclength_is_refused(self, lab, monkeypatch):
        # The integrator samples the nodes before the hand-off t_c, 9 of the
        # 64 here; s dips between the last two of them.
        real = warped.dop853

        def dipped(*args, **kwargs):
            sol = real(*args, **kwargs)

            def sample(t):
                out = sol.sol(t)
                if np.ndim(t):
                    assert np.size(t) == 9
                    out[0, -1] = out[0, -3]
                return out

            return SimpleNamespace(sol=sample, nfev=sol.nfev, steps=sol.steps)

        monkeypatch.setattr(warped, "dop853", dipped)
        with pytest.raises(RuntimeError, match=r"s\(t\) is not strictly increasing"):
            level_flow(lab.warp("schwarzschild", m=2.0), 1.5, n_t=64)

    def test_missed_boundary_is_refused(self, lab):
        # A boundary radius off by one part in a million is not where the
        # backward pass from the outer end lands.
        warp = lab.warp("schwarzschild", m=2.0)
        phi = warp.phi.copy()
        phi[0] *= 1.0 + 1e-6
        moved = dataclasses.replace(warp, phi=phi)
        with pytest.raises(RuntimeError, match="backward pass missed the boundary"):
            level_flow(moved, 1.5, n_t=64)

    def test_matches_reference_slice_at_mass_two(self, lab):
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        model = lab.model(1.5)
        assert flow.W0 == pytest.approx(float(model.grid_data.W[0]), rel=1e-9)
        assert flow.Cp == pytest.approx(model.Kp, rel=1e-10)

    @pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("m", [0.5, 2.0, 10.0])
    def test_every_vacuum_flow_is_the_reference_slice(self, lab, m, p):
        # Rescaling leaves u and t alone and scales phi, so at every t the
        # flow of mass m is the reference slice (isotropic coordinates, mass
        # 2) at the level-set radius r(t): phi = (m/2) r (1 + 1/r)^2, and W
        # and dW/dt are the slice's, the W_s and dW_s/dt that evaluate_Q
        # subtracts. Worst measured: 6.6e-13, 2.5e-11 and 4.2e-12, all at
        # p = 1.1, m = 2.
        model = lab.model(p)
        flow = level_flow(lab.warp("schwarzschild", m=m), p, n_t=1024)
        r, live = model.level_radii(flow.t_grid)
        assert np.all(live)
        d = model.level_data(r)
        phi = 0.5 * m * r * (1.0 + 1.0 / r) ** 2
        assert np.max(np.abs(flow.phi.y / phi - 1.0)) <= 1e-12
        assert np.max(np.abs(flow.W.y / d.W - 1.0)) <= 5e-11
        assert np.max(np.abs(flow.dWdt.y - d.dWdt)) <= 1e-11 * np.max(np.abs(d.dWdt))

    @pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("m", [0.5, 2.0, 10.0])
    def test_integrator_over_the_whole_vacuum_flow_is_the_reference_slice(self, lab, m, p):
        # An exact oracle for the integrator that level_flow leaves off the
        # vacuum end: dop853 on the flow's right-hand side over all of
        # [0, t_max] from the outer end, at level_flow's step cap and
        # tolerance, against the reference slice as in the test above.
        # Worst measured: 6.41e-12, 2.43e-10 and 4.003e-11 at p = 1.1, m = 0.5.
        model, warp = lab.model(p), lab.warp("schwarzschild", m=m)
        kappa = 2.0 / (p - 1.0)
        u, C = radial_p_harmonic(warp, p)
        t_max = (1.0 - p) * math.log(float(u[-1]))
        sol = dop853(
            warp.accel_fn.flow_rhs(p, kappa, math.log(C)),
            (t_max, 0.0),
            [warp.s_max, float(warp.phi[-1]), float(warp.dphi[-1])],
            rtol=1e-12,
            atol=1e-12,
            max_step=t_max / 2500,
        )
        t = np.linspace(0.0, t_max, 1024)
        _, phi, dphi = sol.sol(t)
        du_over_u = -C * phi**-kappa / np.exp(-t / (p - 1.0))
        W = 4.0 * PI * (p - 1.0) ** 2 * (phi * du_over_u) ** 2
        dWdt = W * 2.0 * ((1.0 - kappa) * dphi / phi - du_over_u) / ((1.0 - p) * du_over_u)
        r, live = model.level_radii(t)
        assert np.all(live)
        d = model.level_data(r)
        exact = 0.5 * m * r * (1.0 + 1.0 / r) ** 2
        assert np.max(np.abs(phi / exact - 1.0)) <= 6.5e-12
        assert np.max(np.abs(W / d.W - 1.0)) <= 2.5e-10
        assert np.max(np.abs(dWdt - d.dWdt)) <= 4.1e-11 * np.max(np.abs(d.dWdt))

    def test_hawking_mass_constant_along_flow(self, lab):
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        assert np.max(np.abs(flow.hawking.y - 2.0)) <= 1e-9

    @pytest.mark.parametrize(
        "tag, params", [("schwarzschild", {"m": 2.0}), ("bumped", {"m0": 1.0, "eps": 0.1})]
    )
    def test_step_cap_sets_the_cost(self, lab, monkeypatch, tag, params):
        # The integrator steps [0, t_c] only, from the hand-off t_c to the
        # closed-form vacuum end. The cap t_max / 2500 binds on every step
        # there, so none is rejected: two evaluations pick the first step,
        # then each step costs 12 and 3 more for its interpolant. The last
        # step ends at t = 0 or is a sliver after it.
        warp, spans, real = lab.warp(tag, **params), [], warped.dop853

        def spy(fun, span, y0, **args):
            spans.append(span)
            return real(fun, span, y0, **args)

        monkeypatch.setattr(warped, "dop853", spy)
        flow = level_flow(warp, 1.5)
        ((t_c, end),) = spans
        capped = math.ceil(t_c / (flow.t_max / 2500))
        assert end == 0.0 and 0.0 < t_c < 0.2 * flow.t_max
        assert flow.steps in (capped, capped + 1)
        assert flow.nfev == 15 * flow.steps + 2

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("m", [1.0, 2.0, 5.0])
    def test_matches_exact_vacuum_flow(self, lab, m, p):
        # On the vacuum slice ds = dphi / sqrt(1 - 2m/phi), and x = 2m/phi
        # turns the potential into u = I_x(kappa-1, 1/2) (DLMF 8.17), so the
        # flow is known in closed form: phi(t) = 2m / I^-1_u(kappa-1, 1/2).
        flow = lab.flow(p, "schwarzschild", m=m)
        kappa = 2.0 / (p - 1.0)
        C = (2.0 * m) ** (kappa - 1.0) / beta(kappa - 1.0, 0.5)
        u = np.exp(-flow.t_grid / (p - 1.0))
        x = betaincinv(kappa - 1.0, 0.5, u)
        phi = 2.0 * m / x
        W = 4.0 * PI * (p - 1.0) ** 2 * C**2 * phi ** (2.0 - 2.0 * kappa) / u**2
        slope = (2.0 - 2.0 * kappa) * np.sqrt(1.0 - x) * u * phi ** (kappa - 1.0) / ((p - 1.0) * C)
        dWdt = W * (2.0 / (p - 1.0) + slope)
        assert np.max(np.abs(flow.phi.y / phi - 1.0)) <= 1e-10
        assert np.max(np.abs(flow.W.y / W - 1.0)) <= 1e-9
        assert np.max(np.abs(flow.dWdt.y - dWdt)) <= 1e-9 * np.max(np.abs(dWdt))
        assert flow.Cp == pytest.approx(4.0 * PI * C ** (p - 1.0), rel=1e-12)


# Where the hand-off t_c falls: the README bump, a bump from the boundary
# whose phi(end_s) is below 4 adm (so t_c lies past end_s), a strong bump, a
# wide bump that is mostly stepped, and Schwarzschild, light to heavy.
HAND_OFF_CASES = {
    "readme-bump": ("bumped", {"m0": 1.0, "eps": 0.1}),
    "from-boundary": ("bumped", {"m0": 1.0, "eps": 0.1, "s1": 0.0, "s2": 3.0}),
    "strong-bump": ("bumped", {"m0": 1.0, "eps": 0.9}),
    "wide-bump": ("bumped", {"m0": 1.0, "eps": 0.1, "s2": 2000.0}),
    "m=0.01": ("schwarzschild", {"m": 0.01}),
    "m=2": ("schwarzschild", {"m": 2.0}),
    "m=200": ("schwarzschild", {"m": 200.0}),
}


class TestHandOff:
    """level_flow's stepped part meets its closed-form vacuum end at t_c."""

    @pytest.mark.parametrize("p", [1.04, 1.5, 1.99])
    @pytest.mark.parametrize(
        "tag, params", list(HAND_OFF_CASES.values()), ids=list(HAND_OFF_CASES)
    )
    def test_the_pieces_join_and_the_case_certifies(self, lab, monkeypatch, tag, params, p):
        # A jump J in s, phi or phi' at t_c adds 3 J to two of the fourth
        # differences of the windows across it; measured, those are no
        # larger than the ones near t_c (rounding, or the curve's own). The
        # closed form starts on the vacuum end, at x = 2 adm/phi <= 1/2, s
        # increases across t_c, and every case passes every check, as it
        # did with the whole flow stepped.
        warp, spans, real = lab.warp(tag, **params), [], warped.dop853

        def spy(fun, span, y0, **args):
            spans.append(span)
            return real(fun, span, y0, **args)

        monkeypatch.setattr(warped, "dop853", spy)
        flow = level_flow(warp, p)
        ((t_c, _),) = spans
        k = int(np.searchsorted(flow.t_grid, t_c))
        assert 24 <= k <= flow.t_grid.size - 24
        assert flow.s_of_t.y[k] >= warp.end_s and 2.0 * flow.adm / flow.phi.y[k] <= 0.5
        if tag == "schwarzschild" or params.get("s1") == 0.0:
            assert float(warp.phi_fn(warp.end_s)) < 4.0 * flow.adm < flow.phi.y[k]
        window = slice(k - 24, k + 24)
        assert np.all(np.diff(flow.s_of_t.y[window]) > 0.0)
        for y in (flow.s_of_t.y, flow.phi.y, 0.5 * flow.H.y * flow.phi.y):
            d4 = np.abs(np.diff(y[window], 4))  # d4[j] spans t_c for j = 20 .. 23
            floor = 16.0 * np.finfo(float).eps * np.max(np.abs(y[window]))
            assert np.max(d4[20:24]) <= 2.0 * max(np.max(d4[:20]), np.max(d4[24:])) + floor
        result = certify_case(warp, lab.model(p), flow, *lab.triples(p))
        assert result.passed, [c["name"] for c in result.checks if not c["passed"]]

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_a_domain_that_ends_before_4_adm_is_stepped_whole(self, lab, p):
        # Schwarzschild m = 2 on s_max = 5 ends at phi = 5.4 < 4 adm: the
        # hand-off is at s_max, the integrator steps all of [0, t_max] at
        # the cap, and the flow is still the reference slice (measured:
        # 6.2e-14).
        flow = level_flow(family_schwarzschild(2.0, s_max=5.0), p, n_t=1024)
        assert flow.steps in (2500, 2501) and flow.s_of_t.y[-1] == pytest.approx(5.0)
        r, live = lab.model(p).level_radii(flow.t_grid)
        assert np.all(live)
        assert np.max(np.abs(flow.phi.y / (r * (1.0 + 1.0 / r) ** 2) - 1.0)) <= 1e-12


class TestPerfectSquareIdentity:
    def test_relation_is_exact_for_the_pair_system(self):
        # Both triples take g from dh/dr = b g + c h, which makes dQ/dt a
        # perfect square for any h (conftest.perfect_square_remainder).
        assert perfect_square_remainder() == 0


class TestWInequalityResidual:
    def test_identity_is_exact_in_the_flow_state(self, lab):
        # The residual of W, with W' and W'' by the chain rule along the
        # flow, is 2 pi (3-p)^2 R phi^2 as algebra (conftest.w_identity),
        # and that W' reproduces the flow's sampled dWdt.
        import sympy as sp

        (p, phi, dphi, ddphi, q), dW, remainder = w_identity()
        assert remainder == 0

        warp = lab.warp("bumped", m0=1.0, eps=0.1)
        flow = lab.flow(1.5, "bumped", m0=1.0, eps=0.1)
        i = np.arange(0, flow.t_grid.size, 997)
        ph, dph = flow.phi.y[i], flow.H.y[i] * flow.phi.y[i] / 2.0
        state = (ph, dph, warp.accel_fn(flow.s_of_t.y[i], ph, dph))
        qs = -np.sqrt(flow.W.y[i] / (4.0 * PI)) / (0.5 * ph)  # W = 4 pi (p-1)^2 (phi q)^2
        f = sp.lambdify((phi, dphi, ddphi, q), dW.subs(p, sp.Rational(3, 2)), "numpy")
        assert np.allclose(f(*state, qs), flow.dWdt.y[i], rtol=1e-10, atol=0.0)

    def test_vacuum_residual_is_numerically_zero(self, lab):
        res = curvature_term(lab.flow(1.5, "schwarzschild", m=2.0))
        assert float(np.max(np.abs(res))) <= 1e-7

    def test_bumped_residual_nonnegative_with_exact_identity(self, lab):
        res = curvature_term(lab.flow(1.5, "bumped", m0=1.0, eps=0.1))
        assert float(np.min(res)) >= -1e-8
        # The bump is strictly inside the flow range, so the residual must
        # actually lift off zero somewhere.
        assert float(np.max(res)) > 1e-3

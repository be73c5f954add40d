"""Unit tests for the certification layer."""

import dataclasses
import math

import numpy as np
import pytest

from masscap import (
    SampledCurve,
    Tolerances,
    case_report,
    certify_case,
    constant_diagnostics,
    evaluate_Q,
    family_bumped,
    family_schwarzschild,
    horizon_W_bound,
    level_flow,
    mass_functional_Fp,
    model_constancy,
    model_profile,
    monotonicity_report,
    penrose_margin,
    q_limits,
    reference_checks,
    solve_decaying,
    solve_growing,
)
from masscap.verify import _tail_limit
from conftest import curvature_term

PI = math.pi


@pytest.fixture(scope="module")
def negative_eps_flow():
    return level_flow(family_bumped(1.0, -0.05), 1.5)


class TestEvaluateQ:
    def test_growing_covers_decimated_grid(self, lab):
        # The growing Q once stopped at exp(t/(3-p)) = 20, 41 % of this
        # flow's t_max; subtracting the reference slice resolves all of it.
        _, grow = lab.triples(1.5)
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        q = evaluate_Q(flow, grow)
        assert q.x.size == 4096
        assert np.array_equal(q.x, flow.t_grid[::8])

    def test_decaying_covers_decimated_grid(self, lab):
        dec, _ = lab.triples(1.5)
        q = evaluate_Q(lab.flow(1.5, "schwarzschild", m=2.0), dec)
        assert q.x.size == 4096

    def test_p_mismatch_rejected(self, lab):
        dec, _ = lab.triples(1.5)
        with pytest.raises(ValueError, match="p ="):
            evaluate_Q(lab.flow(1.2, "schwarzschild", m=2.0), dec)


class TestMonotonicityReport:
    def _q(self, values):
        t = np.linspace(0.0, 1.0, len(values))
        return SampledCurve(t, values)

    def test_increasing_curve_passes(self):
        rep = monotonicity_report(self._q([0.0, 1.0, 2.0, 3.0]), Tolerances())
        assert rep.min_forward_slope >= 0.0
        assert not rep.equality_flag

    def test_constant_curve_sets_equality(self):
        rep = monotonicity_report(self._q([5.0, 5.0, 5.0, 5.0]), Tolerances())
        assert rep.min_forward_slope >= 0.0
        assert rep.equality_flag

    def test_dip_is_flagged(self):
        rep = monotonicity_report(self._q([0.0, 1.0, 0.5, 2.0]), Tolerances())
        assert rep.min_forward_slope == pytest.approx(-0.5)


class TestLimitsAndBounds:
    def test_decaying_limit_vanishes(self, lab):
        dec, _ = lab.triples(1.5)
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        assert abs(q_limits(evaluate_Q(flow, dec), flow, "decaying")) <= 1e-9

    def test_growing_limit_meets_resolved_bound_on_vacuum(self, lab):
        # Every family's end is vacuum, a bump's beyond s2, so its growing
        # limit has the closed form too. Fitted over exp(t/(3-p)) <= 20 only,
        # the two bumps missed it by -0.93 % and -41 %; over the whole flow
        # each meets it to about 1e-10.
        cases = [
            ("schwarzschild", {"m": 2.0}),
            ("bumped", {"m0": 1.0, "eps": 0.1, "s1": 2.0, "s2": 6.0}),
            ("bumped", {"m0": 1.0, "eps": 0.1, "s1": 100.0, "s2": 140.0}),
        ]
        for tag, params in cases:
            d = lab.report(1.5, tag, **params).diagnostics
            bound = d["growing_limit_bound_resolved"]
            assert d["limit_growing"] == pytest.approx(bound, rel=1e-8), (tag, params)

    def test_horizon_gap_scale_invariant_on_vacuum(self, lab):
        # W(0) depends only on the conformal class of the end, not the mass,
        # so the boundary gradient bound is tight for every member.
        model = lab.model(1.5)
        dec, _ = lab.triples(1.5)
        for mass in (1.0, 2.0, 5.0):
            gap = horizon_W_bound(lab.flow(1.5, "schwarzschild", m=mass), dec, model)
            assert abs(gap) <= 1e-9

    def test_horizon_gap_positive_off_vacuum(self, lab):
        model = lab.model(1.5)
        dec, _ = lab.triples(1.5)
        gap = horizon_W_bound(lab.flow(1.5, "bumped", m0=1.0, eps=0.1), dec, model)
        assert gap > 1e-3

    def test_mass_functional_limit_on_vacuum(self, lab):
        curve, limit = mass_functional_Fp(lab.flow(1.5, "schwarzschild", m=2.0))
        assert np.all(np.isfinite(curve.y))
        assert limit == pytest.approx(16.0 * PI, rel=1e-6)

    def test_mass_functional_needs_eight_samples_in_its_window(self, lab):
        # On the coarsest accepted t-grid the top decade of radii holds 5
        # samples, too few for a three-term fit.
        flow = level_flow(lab.warp("schwarzschild", m=2.0), 1.5, n_t=16)
        assert int(np.sum(flow.phi.y >= flow.phi.y[-1] / 10.0)) == 5
        with pytest.raises(ValueError, match="not enough samples in the limit window"):
            mass_functional_Fp(flow)

    def test_growing_flavor_required_for_horizon_bound(self, lab):
        _, grow = lab.triples(1.5)
        with pytest.raises(ValueError, match="decaying"):
            horizon_W_bound(lab.flow(1.5, "schwarzschild", m=2.0), grow, lab.model(1.5))


class TestTailLimit:
    def test_recovers_the_constant_of_its_basis(self):
        x = np.geomspace(1.0, 1.0e4, 200)
        y = 3.0 - 2.0 * x**-0.5 + 7.0 * x**-1.5
        assert _tail_limit(x, y, (0.5, 1.5)) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("n_window, window", [(7, 10.0), (8, 10.0), (7, 100.0)])
    def test_needs_eight_samples_in_the_window(self, n_window, window):
        # n_window samples in [x_max/window, x_max], the rest far below it.
        x = np.concatenate([np.linspace(1.0, 2.0, 5), np.geomspace(1e4 / window, 1e4, n_window)])
        y = 1.0 + 1.0 / x
        if n_window < 8:
            with pytest.raises(ValueError, match="not enough samples in the limit window"):
                _tail_limit(x, y, (1.0, 2.0), window=window)
        else:
            assert _tail_limit(x, y, (1.0, 2.0), window=window) == pytest.approx(1.0, rel=1e-12)


class TestHypothesisChecks:
    def test_negative_curvature_rejected(self, lab, negative_eps_flow):
        with pytest.raises(ValueError, match="hypotheses"):
            penrose_margin(negative_eps_flow, lab.model(1.5))

    def test_case_report_propagates_the_rejection(self, lab, negative_eps_flow):
        dec, grow = lab.triples(1.5)
        with pytest.raises(ValueError, match="hypotheses"):
            case_report(negative_eps_flow, lab.model(1.5), dec, grow)

    def test_p_mismatch_rejected(self, lab):
        with pytest.raises(ValueError, match="disagree"):
            penrose_margin(lab.flow(1.2, "schwarzschild", m=2.0), lab.model(1.5))


class TestCaseReport:
    def test_vacuum_case_is_the_equality_case(self, lab):
        rep = lab.report(1.5, "schwarzschild", m=2.0)
        assert rep.equality_flag
        assert rep.min_forward_slope >= -1e-8
        assert abs(rep.penrose_margin) <= 1e-8

    def test_bumped_case_has_strict_margin(self, lab):
        rep = lab.report(1.5, "bumped", m0=1.0, eps=0.1)
        assert not rep.equality_flag
        assert rep.penrose_margin > 0.01
        assert rep.min_forward_slope >= -1e-8
        assert rep.diagnostics["mass_functional_limit"] <= (
            rep.diagnostics["mass_functional_target"] + 1e-6
        )


class TestConstantDiagnostics:
    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_measured_values_land_on_resolved_forms(self, lab, p):
        dec, grow = lab.triples(p)
        d = constant_diagnostics(lab.model(p), dec, grow)
        s = 3.0 - p
        assert set(d) == {
            "g_constant_measured",
            "g_plus_sh_measured",
            "growing_Q0_measured",
            "growing_Q0_deviation",
            "decaying_Q0_measured",
            "decaying_Q0_deviation",
        }
        assert d["g_constant_measured"] == pytest.approx(-4.0 / s, rel=1e-6)
        assert d["g_plus_sh_measured"] == pytest.approx(s - 4.0 / s, rel=1e-6)
        q0 = 8.0 * PI * s**3 + 16.0 * PI * s**2 - 16.0 * PI * s
        assert d["growing_Q0_measured"] == pytest.approx(q0, rel=1e-6)


class TestReferenceChecks:
    NAMES = ["growing_Q0", "growing_constant", "decaying_zero", "g_limit", "g_plus_sh_limit"]

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_all_checks_pass(self, lab, p):
        dec, grow = lab.triples(p)
        checks, diagnostics = reference_checks(lab.model(p), dec, grow)
        assert [check["name"] for check in checks] == self.NAMES
        assert all(check["passed"] for check in checks)
        assert diagnostics == constant_diagnostics(lab.model(p), dec, grow)

    def test_shifted_growing_f_fails_growing_Q0(self, lab):
        dec, grow = lab.triples(1.5)
        f = grow.f_curve
        shifted = dataclasses.replace(grow, f_curve=SampledCurve(f.x, f.y + 1e-3))
        checks, _ = reference_checks(lab.model(1.5), dec, shifted)
        failed = [check["name"] for check in checks if not check["passed"]]
        assert failed == ["growing_Q0"]


class TestCertifyCase:
    VACUUM_ONLY = {"penrose_sharp"}
    SHARED = ["monotone_decaying", "monotone_growing", "horizon_gradient_bound"]

    def _certify(self, lab, tag, flow=None, **params):
        dec, grow = lab.triples(1.5)
        if flow is None and tag != "flat":
            flow = lab.flow(1.5, tag, **params)
        return certify_case(lab.warp(tag, **params), lab.model(1.5), flow, dec, grow)

    @staticmethod
    def _names(result):
        return {check["name"] for check in result.checks}

    def test_vacuum_case_passes_every_check_with_equality(self, lab):
        result = self._certify(lab, "schwarzschild", m=2.0)
        assert result.passed and result.report is not None
        assert all(check["passed"] for check in result.checks)
        assert result.report.equality_flag is True
        assert [check["name"] for check in result.checks] == self.SHARED + [
            "penrose_sharp", "mass_limit", "equality_flag"
        ]
        assert (result.p, result.family, result.params) == (1.5, "schwarzschild", {"m": 2.0})

    def test_vacuum_is_read_from_the_geometry_not_its_tag(self, lab):
        warp = dataclasses.replace(lab.warp("schwarzschild", m=2.0), family_tag="renamed")
        dec, grow = lab.triples(1.5)
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        result = certify_case(warp, lab.model(1.5), flow, dec, grow)
        assert result.family == "renamed"
        assert self.VACUUM_ONLY <= self._names(result)
        assert result.passed, [c["name"] for c in result.checks if not c["passed"]]

    def test_bumped_case_passes_with_strict_margin(self, lab):
        result = self._certify(lab, "bumped", m0=1.0, eps=0.1)
        assert result.passed
        assert result.report.penrose_margin > 0.0
        assert [check["name"] for check in result.checks] == self.SHARED + [
            "penrose_margin", "mass_limit", "equality_flag"
        ]

    def test_negative_curvature_is_the_one_failed_check(self, lab, negative_eps_flow):
        result = self._certify(lab, "bumped", flow=negative_eps_flow, m0=1.0, eps=-0.05)
        assert not result.passed
        assert result.report is None
        [check] = result.checks
        assert check["name"] == "hypotheses" and not check["passed"]
        assert "curvature" in check["detail"]

    def test_residual_slack_bounds_the_curvature_at_every_sample(self, lab):
        # R >= 0 enters only through the W inequality, whose residual is
        # 2 pi (3-p)^2 R phi^2. At the outermost sample a residual of
        # -2 slope_slack is R = -5.7e-17, far above -1e-9 max|R|, yet it
        # must fail the hypothesis.
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        slack = lab.model(1.5).tol.slope_slack
        R = flow.R.y.copy()
        R[-1] = -2.0 * slack / (2.0 * math.pi * 1.5**2 * flow.phi.y[-1] ** 2)
        assert R[-1] > -1e-9 * max(1.0, float(np.max(np.abs(R))))
        edited = dataclasses.replace(flow, R=SampledCurve(flow.t_grid, R))
        result = self._certify(lab, "schwarzschild", flow=edited, m=2.0)
        [check] = result.checks
        assert check["name"] == "hypotheses" and "scalar curvature" in check["detail"]

    def test_coarse_grid_is_a_case_report_failure(self, lab):
        # The coarsest accepted t-grid leaves the tail fits too few samples
        # in the top decade of radii: the computation fails, not a
        # hypothesis of the bound.
        flow = level_flow(lab.warp("schwarzschild", m=2.0), 1.5, n_t=16)
        result = self._certify(lab, "schwarzschild", flow=flow, m=2.0)
        [check] = result.checks
        assert check["name"] == "case_report" and not check["passed"]
        assert check["detail"] == "not enough samples in the limit window"

    def test_violated_hypothesis_wins_on_a_coarse_grid(self, lab):
        flow = level_flow(lab.warp("bumped", m0=1.0, eps=-0.1), 1.5, n_t=16)
        result = self._certify(lab, "bumped", flow=flow, m0=1.0, eps=-0.1)
        [check] = result.checks
        assert check["name"] == "hypotheses" and not check["passed"]
        assert "scalar curvature" in check["detail"]

    def test_flat_case_meets_euclidean_capacity_and_zero_mass(self, lab):
        result = self._certify(lab, "flat")
        assert result.passed
        assert [check["name"] for check in result.checks] == ["capacity_euclidean", "adm_zero"]
        assert result.report.penrose_margin is None

    def test_light_result_drops_only_the_curves(self, lab):
        result = self._certify(lab, "schwarzschild", m=2.0)
        assert set(result.report.curves) == {"decaying", "growing"}
        light = result.light()
        assert light.report.curves == {}
        assert light == result

    def test_minimal_boundary_needs_flow_and_triples(self, lab):
        with pytest.raises(ValueError, match="minimal boundary"):
            certify_case(lab.warp("schwarzschild", m=2.0), lab.model(1.5))

    @pytest.mark.parametrize("p", [1.5, 1.8])
    def test_large_mass_with_proportional_domain(self, lab, p):
        # The vacuum domain must reach s_max >= 125 m: mass_limit misses its
        # 10 accept_rel bound at m = 50 with the default s_max = 5e3, while
        # m = 100 on s_max = 2.5e4 passes every check.
        warp = family_schwarzschild(100.0, s_max=2.5e4)
        dec, grow = lab.triples(p)
        flow = level_flow(warp, p)
        result = certify_case(warp, lab.model(p), flow, dec, grow)
        assert result.passed, [c["name"] for c in result.checks if not c["passed"]]

    @pytest.mark.parametrize(
        "p, warp_args",
        [
            (1.05, ("schwarzschild", {"m": 0.5})),
            (1.1, ("schwarzschild", {"m": 0.5})),
            (1.15, ("schwarzschild", {"m": 2.0})),
            (1.22, ("schwarzschild", {"m": 1.5})),
            (1.3, ("schwarzschild", {"m": 5.0})),
            (1.35, ("schwarzschild", {"m": 1.5})),
            (1.29, ("bumped", {"m0": 1.5, "eps": 0.2, "s1": 2.5, "s2": 7.0})),
        ],
    )
    def test_residual_floor_holds_near_p_one(self, lab, p, warp_args):
        # A finite-difference W'' once put these cases below the residual's
        # 1e-8 slack (down to -2.3e-6 at p = 1.05). The residual is the
        # curvature term 2 pi (3-p)^2 R phi^2 (test_warped.py proves the
        # identity), which on these flows reads rounding only.
        warp = lab.warp(warp_args[0], **warp_args[1])
        dec, grow = lab.triples(p)
        flow = level_flow(warp, p)
        result = certify_case(warp, lab.model(p), flow, dec, grow)
        assert result.passed, [c for c in result.checks if not c["passed"]]
        assert float(np.min(curvature_term(flow))) >= -1e-11

    @pytest.mark.parametrize("m, R_max", [(0.05, 1e4), (5e-4, 1e6)])
    def test_small_mass_flow_past_the_model_grid(self, m, R_max):
        # A small mass carries the flow's t past the model's t_max (beyond
        # 10 R_max in radius), where the decaying triple is still exact.
        model = model_profile(1.5, R_max=R_max)
        dec, grow = solve_decaying(model), solve_growing(model)
        warp = family_schwarzschild(m)
        flow = level_flow(warp, 1.5)
        assert flow.t_max > model.t_max
        result = certify_case(warp, model, flow, dec, grow)
        assert result.passed, [c for c in result.checks if not c["passed"]]


class TestGrowingWindow:
    """The growing Q is gated where its rounding stays below slope_slack."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize(
        "tag, params", [("schwarzschild", {"m": 2.0}), ("bumped", {"m0": 1.0, "eps": 0.1})]
    )
    def test_readme_families_are_gated_over_the_whole_flow(self, lab, p, tag, params):
        # Every decimated sample, the last of them 7 nodes short of t_max.
        rep = lab.report(p, tag, **params)
        flow = lab.flow(p, tag, **params)
        assert np.array_equal(rep.curves["growing"].x, flow.t_grid[::8])
        assert rep.diagnostics["growing_coverage"] == pytest.approx(32760 / 32767, rel=1e-12)

    @pytest.mark.parametrize(
        "p, m, s_max", [(1.05, 0.5, 1e5), (1.2, 0.5, 1e5), (1.5, 0.5, 1e5), (1.2, 0.05, 5e3)]
    )
    def test_small_vacuum_cases_pass_on_a_shorter_window(self, lab, p, m, s_max):
        # Gated over every live sample, these read growing slopes down to
        # -1.6e-8 and -7.7e-9, below the slack: near t = 21 at p = 1.2,
        # |g| W is 1.6e7, so its rounding alone is about 3.6e-9. The window
        # stops where 64 eps of the terms reaches slope_slack (measured
        # coverage 0.71 to 0.78).
        warp = family_schwarzschild(m, s_max=s_max)
        flow = level_flow(warp, p)
        result = certify_case(warp, lab.model(p), flow, *lab.triples(p))
        assert result.passed, [c for c in result.checks if not c["passed"]]
        assert 0.5 < result.report.diagnostics["growing_coverage"] < 0.9

    @pytest.mark.parametrize("eps", [-0.01, -1e-4])
    def test_far_negative_bump_fails_monotone_growing(self, lab, eps):
        # R < 0 only on s in [100, 140], beyond exp(t/(3-p)) = 20 where the
        # growing Q once stopped. With R replaced by |R| the case gets past
        # the hypothesis check; there its growing Q drops by 0.131 and
        # 1.31e-3 in one decimated step.
        warp = lab.warp("bumped", m0=1.0, eps=eps, s1=100.0, s2=140.0)
        flow = lab.flow(1.5, "bumped", m0=1.0, eps=eps, s1=100.0, s2=140.0)
        flow = dataclasses.replace(flow, R=SampledCurve(flow.t_grid, np.abs(flow.R.y)))
        result = certify_case(warp, lab.model(1.5), flow, *lab.triples(1.5))
        failed = {check["name"] for check in result.checks if not check["passed"]}
        assert "monotone_growing" in failed
        assert result.report.diagnostics["min_slope_growing"] < -abs(eps)


class TestSingleTolerance:
    def test_every_tolerance_derives_from_the_model(self, lab):
        # One budget, carried by the model, sets every gate: each tolerance
        # scales with it, and the slope ones equal slope_slack.
        # Triples belong to the model they were solved on, so each model
        # gets its own.
        tight = model_profile(1.5, tol=Tolerances(accept_rel=1e-7, slope_slack=1e-9))
        tight_triples = solve_decaying(tight), solve_growing(tight)
        base = lab.model(1.5)
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        warp = lab.warp("schwarzschild", m=2.0)
        tight_checks = certify_case(warp, tight, flow, *tight_triples).checks
        base_checks = certify_case(warp, base, flow, *lab.triples(1.5)).checks
        tight_checks += reference_checks(tight, *tight_triples)[0]
        base_checks += reference_checks(base, *lab.triples(1.5))[0]
        for check, ref in zip(tight_checks, base_checks, strict=True):
            assert check["name"] == ref["name"]
            if ref["tolerance"] is not None:
                assert check["tolerance"] == pytest.approx(0.1 * ref["tolerance"], rel=1e-12)
        slope_names = {"monotone_decaying", "monotone_growing"}
        slope = [check for check in tight_checks if check["name"] in slope_names]
        assert len(slope) == 2 and all(check["tolerance"] == 1e-9 for check in slope)


class TestTriplesBelongToTheirModel:
    def test_triples_of_another_model_are_refused(self, lab):
        # model_constancy(solve_growing(model_profile(1.5)), model_profile(1.8))
        # once returned Q(0) = 118.96 with a deviation of 1.0e7.
        model = lab.model(1.8)
        dec, grow = lab.triples(1.5)
        flow = lab.flow(1.8, "schwarzschild", m=2.0)
        warp = lab.warp("schwarzschild", m=2.0)
        calls = [
            lambda: model_constancy(grow, model),
            lambda: horizon_W_bound(flow, dec, model),
            lambda: constant_diagnostics(model, dec, grow),
            lambda: reference_checks(model, dec, grow),
            lambda: case_report(flow, model, dec, grow),
            lambda: certify_case(warp, model, flow, dec, grow),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="another reference model"):
                call()

    def test_one_foreign_triple_is_enough(self, lab):
        # An equal exponent does not make two models one.
        model = lab.model(1.5)
        dec, _ = lab.triples(1.5)
        foreign = solve_growing(model_profile(1.5))
        with pytest.raises(ValueError, match="growing triple was solved on another"):
            constant_diagnostics(model, dec, foreign)


class TestWeakBump:
    """A bump's margin is about eps/2; equality is decided at accept_rel max(adm, 1)."""

    @staticmethod
    def _certify(lab, eps):
        warp, flow = lab.warp("bumped", m0=1.0, eps=eps), lab.flow(1.5, "bumped", m0=1.0, eps=eps)
        return certify_case(warp, lab.model(1.5), flow, *lab.triples(1.5))

    def test_smallest_documented_bump_passes(self, lab):
        result = self._certify(lab, 2e-6)
        assert result.passed, [c for c in result.checks if not c["passed"]]
        assert result.report.penrose_margin == pytest.approx(1.0e-6, rel=1e-2)

    @pytest.mark.xfail(
        strict=True,
        reason="its margin 5.0e-7 is below the equality flag's tolerance 1e-6, so "
        "equality_flag fails (ROADMAP direction 8)",
    )
    def test_bump_at_the_equality_tolerance_passes(self, lab):
        result = self._certify(lab, 1e-6)
        assert result.passed, [c["name"] for c in result.checks if not c["passed"]]

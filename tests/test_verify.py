"""Unit tests for the certification layer."""

import dataclasses
import math
import random

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
    level_flow,
    model_constancy,
    model_profile,
    reference_checks,
    solve_decaying,
    solve_growing,
)
from masscap import verify, warped
from masscap.verify import _end_error, _monotonicity, _nodes, _tail_limit
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
        [q] = evaluate_Q(flow, grow)
        # Every 8th node and the last one, t_max.
        assert q.size == 4097
        assert np.array_equal(flow.t_grid[_nodes(flow)], np.append(flow.t_grid[::8], flow.t_max))

    def test_decaying_covers_decimated_grid(self, lab):
        dec, _ = lab.triples(1.5)
        [q] = evaluate_Q(lab.flow(1.5, "schwarzschild", m=2.0), dec)
        assert q.size == 4097

    def test_one_call_gives_each_triple_its_own_curve(self, lab):
        # Both triples share the radii of one evaluation; each curve is the
        # one a call with its triple alone gives, bit for bit.
        dec, grow = lab.triples(1.5)
        flow = lab.flow(1.5, "bumped", m0=1.0, eps=0.1)
        both = evaluate_Q(flow, dec, grow)
        for q, sol in zip(both, (dec, grow), strict=True):
            [alone] = evaluate_Q(flow, sol)
            assert np.array_equal(q, alone)

    def test_each_curve_is_on_a_prefix_of_the_flow_nodes(self, lab):
        # Each Q holds its values at the first len(Q) node t, which the CLI
        # writes as the flow's node texts cut at the Q's length; here the
        # growing window stops short of t_max.
        dec, grow = lab.triples(1.2)
        flow = lab.flow(1.2, "schwarzschild", m=0.05)
        curves = evaluate_Q(flow, dec, grow)
        assert curves[0].size == _nodes(flow).size > curves[1].size

    def test_non_finite_Q_is_named(self, lab, monkeypatch):
        # A NaN term passes the window test (NaN > slack is False), so the
        # Q itself is checked; certify_case reports it at case_report.
        real = verify.at_t

        def nan_g(t, *sols):
            live, Ws, dWs, triples = real(t, *sols)
            f, g, h = triples[-1]
            g = g.copy()
            g[5] = math.nan
            return live, Ws, dWs, [*triples[:-1], (f, g, h)]

        monkeypatch.setattr(verify, "at_t", nan_g)
        dec, grow = lab.triples(1.5)
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        message = "the growing Q is not finite in its gated window"
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate_Q(flow, dec, grow)
        warp = lab.warp("schwarzschild", m=2.0)
        [check] = certify_case(warp, lab.model(1.5), flow, dec, grow).checks
        assert (check["name"], check["detail"]) == ("case_report", message)

    def test_p_mismatch_rejected(self, lab):
        dec, _ = lab.triples(1.5)
        with pytest.raises(ValueError, match="p ="):
            evaluate_Q(lab.flow(1.2, "schwarzschild", m=2.0), dec)

    def test_no_triple_rejected(self, lab):
        with pytest.raises(ValueError, match="at least one coefficient triple"):
            evaluate_Q(lab.flow(1.5, "schwarzschild", m=2.0))


class TestMonotonicityReport:
    """The slope and equality flag that case_report reports per flavour."""

    ACCEPT_REL = Tolerances().accept_rel

    def test_increasing_curve_passes(self):
        slope, flat = _monotonicity(np.array([0.0, 1.0, 2.0, 3.0]), self.ACCEPT_REL)
        assert slope >= 0.0
        assert not flat

    def test_constant_curve_sets_equality(self):
        slope, flat = _monotonicity(np.array([5.0, 5.0, 5.0, 5.0]), self.ACCEPT_REL)
        assert slope >= 0.0
        assert flat

    def test_dip_is_flagged(self):
        slope, _ = _monotonicity(np.array([0.0, 1.0, 0.5, 2.0]), self.ACCEPT_REL)
        assert slope == pytest.approx(-0.5)


class TestLimitsAndBounds:
    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_growing_Q0_is_at_most_its_limit(self, lab, p):
        # The paper's chain: the monotone growing Q starts at most at its
        # limit, which the vacuum end gives in closed form
        # (growing_limit_bound_resolved). On vacuum Q is constant, so the
        # two meet; a bump leaves a gap far above the rounding.
        acc = lab.model(p).tol.accept_rel
        for tag, params in (("schwarzschild", {"m": 2.0}), ("bumped", {"m0": 1.0, "eps": 0.1})):
            d = lab.report(p, tag, **params).diagnostics
            q0, limit = d["Q0_growing"], d["growing_limit_bound_resolved"]
            if tag == "schwarzschild":
                assert abs(limit - q0) <= acc * abs(limit), (p, tag)
            else:
                assert limit - q0 > 1e-3, (p, tag)

    def test_horizon_gap_scale_invariant_on_vacuum(self, lab):
        # W(0) depends only on the conformal class of the end, not the mass,
        # so the boundary gradient bound is tight for every member.
        for mass in (1.0, 2.0, 5.0):
            gap = lab.report(1.5, "schwarzschild", m=mass).diagnostics["horizon_W_gap"]
            assert abs(gap) <= 1e-9

    def test_horizon_gap_positive_off_vacuum(self, lab):
        gap = lab.report(1.5, "bumped", m0=1.0, eps=0.1).diagnostics["horizon_W_gap"]
        assert gap > 1e-3


class TestTailLimit:
    def test_recovers_the_constant_of_its_basis(self):
        x = np.geomspace(1.0, 1.0e4, 200)
        y = 3.0 - 2.0 / x + 7.0 / x**2
        assert _tail_limit(x, y) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("n_window", [7, 8])
    def test_needs_eight_samples_in_the_window(self, n_window):
        # n_window samples in [x_max/100, x_max], the rest far below it.
        x = np.concatenate([np.linspace(1.0, 2.0, 5), np.geomspace(1e2, 1e4, n_window)])
        y = 1.0 + 1.0 / x
        if n_window < 8:
            with pytest.raises(ValueError, match="not enough samples in the limit window"):
                _tail_limit(x, y)
        else:
            assert _tail_limit(x, y) == pytest.approx(1.0, rel=1e-12)


class TestHypothesisChecks:
    def test_case_report_propagates_the_rejection(self, lab, negative_eps_flow):
        dec, grow = lab.triples(1.5)
        with pytest.raises(ValueError, match="hypotheses"):
            case_report(negative_eps_flow, lab.model(1.5), dec, grow)

    def test_p_mismatch_rejected(self, lab):
        dec, grow = lab.triples(1.5)
        with pytest.raises(ValueError, match="disagree"):
            case_report(lab.flow(1.2, "schwarzschild", m=2.0), lab.model(1.5), dec, grow)


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
        shifted = dataclasses.replace(grow, f=grow.f + 1e-3)
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
            "penrose_sharp", "end_is_reference", "end_mass", "equality_flag"
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
            "penrose_margin", "end_is_reference", "end_mass", "equality_flag"
        ]

    def test_negative_curvature_is_the_one_failed_check(self, lab, negative_eps_flow):
        result = self._certify(lab, "bumped", flow=negative_eps_flow, m0=1.0, eps=-0.05)
        assert not result.passed
        assert result.report is None
        [check] = result.checks
        assert check["name"] == "hypotheses" and not check["passed"]
        assert "curvature" in check["detail"]

    def _residual_violated_at(self, lab, i):
        """The one check of Schwarzschild m = 2 at p = 1.5, R at sample i edited.

        R[i] makes the residual -2 slope_slack, which -1e-9 max|R| alone passes.
        """
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        slack = lab.model(1.5).tol.slope_slack
        R = flow.R.y.copy()
        R[i] = -2.0 * slack / (2.0 * math.pi * 1.5**2 * flow.phi.y[i] ** 2)
        assert R[i] > -1e-9 * max(1.0, float(np.max(np.abs(R))))
        edited = dataclasses.replace(flow, R=SampledCurve(flow.t_grid, R))
        [check] = self._certify(lab, "schwarzschild", flow=edited, m=2.0).checks
        return check

    def test_residual_slack_bounds_the_curvature_at_every_sample(self, lab):
        # R >= 0 enters only through the W inequality, whose residual is
        # 2 pi (3-p)^2 R phi^2. At the outermost sample a residual of
        # -2 slope_slack is R = -5.7e-17, far above -1e-9 max|R|, yet it
        # must fail the hypothesis.
        check = self._residual_violated_at(lab, -1)
        assert check["name"] == "hypotheses" and "scalar curvature" in check["detail"]

    def test_curvature_is_read_between_the_gated_nodes(self, lab):
        # The suite writes and the Q gates read the flow at _nodes(flow)
        # only; the R >= 0 hypothesis still reads every sample.
        assert 3 not in _nodes(lab.flow(1.5, "schwarzschild", m=2.0))
        check = self._residual_violated_at(lab, 3)
        assert check["name"] == "hypotheses" and not check["passed"]
        assert "scalar curvature" in check["detail"]

    def test_coarse_grid_passes_every_check(self, lab):
        # No check fits a tail any more: on the coarsest accepted t-grid
        # every one of the 16 samples is gated, and the vacuum end still
        # reads rounding only.
        flow = level_flow(lab.warp("schwarzschild", m=2.0), 1.5, n_t=16)
        result = self._certify(lab, "schwarzschild", flow=flow, m=2.0)
        assert result.passed, [c for c in result.checks if not c["passed"]]
        assert result.report.curves["growing"].size == 16
        [end] = [c for c in result.checks if c["name"] == "end_is_reference"]
        assert end["value"] <= 1e-10

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

    def test_mass_limit_is_two_sided(self, lab):
        # An adm too large or too small by 1e-5 fails end_mass on every end:
        # the Hawking mass of the end's level spheres reads it at full size.
        # The end gate reads adm through the shift of the reference slice,
        # which weighs it only at order adm/phi far out: 1e-5 moves the
        # README bump's end (s2 = 6) by 4.5e-6, but the ends beyond s2 = 500
        # and 1000 by 3.2e-7 and 3.1e-7, below accept_rel. The bump on
        # [0, 1000] ends at phi(s2) = 0.20 phi_max, where a tail fit of the
        # mass functional over phi >= phi_max/10 once missed 8 pi adm by 9 %;
        # pointwise, its end is the slice to rounding.
        rel = 1e-5
        for s1, s2, shape_fails in ((2.0, 6.0, True), (0.0, 500.0, False), (0.0, 1000.0, False)):
            params = {"m0": 1.0, "eps": 0.1, "s1": s1, "s2": s2}
            flow = lab.flow(1.5, "bumped", **params)
            result = self._certify(lab, "bumped", flow=flow, **params)
            assert result.passed, (s2, [c for c in result.checks if not c["passed"]])
            [mass] = [c["value"] for c in result.checks if c["name"] == "end_mass"]
            assert mass <= 1e-11, s2
            for scale in (1.0 + rel, 1.0 - rel):
                wrong = dataclasses.replace(flow, adm=flow.adm * scale)
                result = self._certify(lab, "bumped", flow=wrong, **params)
                failed = [c["name"] for c in result.checks if not c["passed"]]
                assert failed == ["end_is_reference"] * shape_fails + ["end_mass"], (s2, scale)
                [mass] = [c["value"] for c in result.checks if c["name"] == "end_mass"]
                assert mass == pytest.approx(rel, rel=1e-4), (s2, scale)

    def test_horizon_gate_reads_the_model_boundary(self, lab):
        # W_s(0) is the model's own sample, so the gap and its tolerance are
        # exact; a W_s(0) rebuilt from the decaying triple is off by ~4e-16.
        model = lab.model(1.5)
        Ws0 = model.grid_data.W[0]
        for tag, params in (("schwarzschild", {"m": 2.0}), ("bumped", {"m0": 1.0, "eps": 0.1})):
            flow = lab.flow(1.5, tag, **params)
            result = self._certify(lab, tag, **params)
            [check] = [c for c in result.checks if c["name"] == "horizon_gradient_bound"]
            gap = float(Ws0) - flow.W0
            assert result.report.diagnostics["horizon_W_gap"] == gap, tag
            assert check["value"] == gap, tag
            assert check["tolerance"] == model.tol.accept_rel * Ws0, tag

    def test_minimal_boundary_needs_flow_and_triples(self, lab):
        with pytest.raises(ValueError, match="minimal boundary"):
            certify_case(lab.warp("schwarzschild", m=2.0), lab.model(1.5))

    @pytest.mark.parametrize("p", [1.5, 1.8])
    def test_large_mass_with_proportional_domain(self, lab, p):
        # The domain need not grow with the mass: m = 50 and m = 1000 on the
        # default s_max = 5e3 pass every check, as m = 100 on s_max = 2.5e4
        # does. A tail fit of the mass functional once failed every
        # m > s_max/125 (m = 50: 1.5e-5 against its 1e-5 bound at p = 1.5).
        dec, grow = lab.triples(p)
        for m, s_max in ((50.0, 5e3), (1000.0, 5e3), (100.0, 2.5e4)):
            warp = family_schwarzschild(m, s_max=s_max)
            result = certify_case(warp, lab.model(p), level_flow(warp, p), dec, grow)
            assert result.passed, (m, [c["name"] for c in result.checks if not c["passed"]])

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


class TestEndIsReference:
    """Beyond warp.end_s every flow is the reference slice shifted in t."""

    README = [
        (p, tag, params)
        for p in (1.2, 1.5, 1.8)
        for tag, params in (("schwarzschild", {"m": 2.0}), ("bumped", {"m0": 1.0, "eps": 0.1}))
    ]

    @staticmethod
    def _failed(lab, p, tag, flow, params):
        result = certify_case(lab.warp(tag, **params), lab.model(p), flow, *lab.triples(p))
        return [check["name"] for check in result.checks if not check["passed"]]

    @pytest.mark.parametrize("key", ["adm", "Cp"])
    def test_a_wrong_mass_or_capacity_fails_the_gate(self, lab, key):
        # Scaled by 1 + 1e-5, adm or C_p fails the gate on every README
        # case. At 1e-6 the vacuum ends still fail, while a bump's end
        # reads 2.8e-7 to 5.9e-7, below accept_rel.
        for p, tag, params in self.README:
            flow = lab.flow(p, tag, **params)
            for rel in (1e-5, 1e-6):
                wrong = dataclasses.replace(flow, **{key: getattr(flow, key) * (1.0 + rel)})
                failed = "end_is_reference" in self._failed(lab, p, tag, wrong, params)
                assert failed == (rel == 1e-5 or tag == "schwarzschild"), (p, tag, rel)
                if not failed:
                    error, _ = _end_error(wrong, lab.model(p), lab.warp(tag, **params))
                    assert 2e-7 < error < 1e-6, (p, tag)

    def test_a_wrong_mass_from_masses_is_read_against_the_family(self, lab, monkeypatch):
        # level_flow's closed-form end and hand-off state take adm from
        # warped.masses, so a wrong adm there must be read against the family
        # solve, not against itself. From 1e-8 (accept_rel is 1e-6) the
        # backward pass heads for that mass's horizon and misses phi(0). At
        # 1e-9 it lands, and end_mass reads the error at full size through
        # the family's Hawking mass where the end begins; end_is_reference
        # reads it through the family's phi (0.12 of it on the bump).
        masses = warped.masses
        for p, tag, params in self.README:
            warp, model = lab.warp(tag, **params), lab.model(p)
            shape, mass = _end_error(lab.flow(p, tag, **params), model, warp)
            assert shape < 3e-12 and mass < 2e-12, (p, tag)
            for rel in (1e-9, -1e-9, 1e-8, 1e-6):
                wrong = (masses(warp)[0], masses(warp)[1] * (1.0 + rel))
                with monkeypatch.context() as patch:
                    patch.setattr(warped, "masses", lambda _, wrong=wrong: wrong)
                    if abs(rel) >= 1e-8:
                        with pytest.raises(RuntimeError, match="missed the boundary"):
                            level_flow(warp, p)
                        continue
                    flow = level_flow(warp, p)
                shape, mass = _end_error(flow, model, warp)
                assert mass == pytest.approx(abs(rel), rel=2e-3), (p, tag, rel)
                assert shape > 0.1 * abs(rel), (p, tag, rel)

    def test_strong_bump_passes(self, lab):
        # adm = 3.6 m0 puts s_max below 125 adm, where a tail fit of the
        # mass functional once missed 8 pi adm by 3.6e-2.
        params = {"m0": 15.5704, "eps": 0.9867, "s1": 59.5744, "s2": 350.2776}
        flow = lab.flow(1.64, "bumped", **params)
        assert self._failed(lab, 1.64, "bumped", flow, params) == []

    @pytest.mark.parametrize("p", [1.756, 1.911])
    def test_equality_case_at_exponents_with_an_inexact_boundary_inverse(self, lab, p):
        # There betaincinv put the level set t = 0 off r = 1 (by 4.9e-8 at
        # p = 1.911), and the growing Q's first difference read -1.35e-6.
        flow = lab.flow(p, "schwarzschild", m=2.0)
        assert self._failed(lab, p, "schwarzschild", flow, {"m": 2.0}) == []


def _domain_cases(seed: str, n: int) -> list:
    """n seeded cases over the tested domain, Schwarzschild and bumps in turn.

    p is drawn to three decimals in [1.05, 1.95]; m log-uniform in
    [0.05, 1000]; a bump's m0 log-uniform in [0.1, 200], eps in [0, 1],
    s1 in [0, 5 m0] and s2 - s1 in [0.5, 20 m0], redrawn until
    s2 <= s_max/2 on the default s_max.
    """
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    cases = []
    for i in range(n):
        p = round(rng.uniform(1.05, 1.95), 3)
        if i % 2 == 0:
            cases.append((p, "schwarzschild", {"m": log_uniform(0.05, 1000.0)}))
            continue
        while True:
            m0 = log_uniform(0.1, 200.0)
            s1 = rng.uniform(0.0, 5.0 * m0)
            s2 = s1 + rng.uniform(0.5, 20.0 * m0)
            if s2 <= 2.5e3:
                break
        cases.append((p, "bumped", {"m0": m0, "eps": rng.uniform(0.0, 1.0), "s1": s1, "s2": s2}))
    return cases


def test_domain_sweep_passes_every_check():
    # Round exponents hid the t = 0 defect; a seeded draw over the whole
    # domain does not. Each case builds its own model at its own p.
    failures = []
    for p, tag, params in _domain_cases("domain", 16):
        model = model_profile(p)
        warp = family_schwarzschild(**params) if tag == "schwarzschild" else family_bumped(**params)
        result = certify_case(
            warp, model, level_flow(warp, p), solve_decaying(model), solve_growing(model)
        )
        if not result.passed:
            failures.append((p, tag, params, [c["name"] for c in result.checks if not c["passed"]]))
    assert failures == []


class TestGrowingWindow:
    """The growing Q is gated where its rounding stays below slope_slack."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize(
        "tag, params", [("schwarzschild", {"m": 2.0}), ("bumped", {"m0": 1.0, "eps": 0.1})]
    )
    def test_readme_families_are_gated_over_the_whole_flow(self, lab, p, tag, params):
        # Every decimated sample, the last of them t_max itself.
        rep = lab.report(p, tag, **params)
        flow = lab.flow(p, tag, **params)
        t = flow.t_grid[_nodes(flow)][: rep.curves["growing"].size]
        assert np.array_equal(t, np.append(flow.t_grid[::8], flow.t_max))
        assert rep.diagnostics["growing_coverage"] == 1.0

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

    def test_an_empty_window_is_named(self, lab):
        # At slope_slack = 1e-13, 64 eps of either Q's terms exceeds the
        # slack already at t = 0 on Schwarzschild m = 2, so neither window
        # holds the two samples a curve needs. The case fails at case_report
        # with the first flavour's window and the slack named.
        model = model_profile(1.5, tol=Tolerances(slope_slack=1e-13))
        dec, grow = solve_decaying(model), solve_growing(model)
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        result = certify_case(lab.warp("schwarzschild", m=2.0), model, flow, dec, grow)
        [check] = result.checks
        assert check["name"] == "case_report"
        assert check["detail"] == (
            "the gated window of the decaying Q holds 0 of 4097 samples: "
            "64 eps of its terms exceeds slope_slack = 1e-13 from t = 0"
        )
        with pytest.raises(ValueError, match=r"growing Q holds 0 of 4097 .* slope_slack = 1e-13"):
            evaluate_Q(flow, grow)

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
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        calls = [
            lambda: constant_diagnostics(model, dec, foreign),
            lambda: evaluate_Q(flow, dec, foreign),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="growing triple was solved on another"):
                call()


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

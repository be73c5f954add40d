"""Unit tests for the reference slice (mass-2, isotropic coordinates)."""

import math
import warnings

import numpy as np
import pytest

from masscap import (
    SampledCurve,
    flux_constant,
    model_profile,
    ws_boundary_data,
)
from masscap.numerics import fit_power_tail, panel_integrals, right_cumulative

PI = math.pi


class TestClosedFormAnchors:
    """At p = 1.5 every normalization has an exact closed form."""

    def test_flux_constant_is_sixty(self):
        assert flux_constant(1.5) == pytest.approx(60.0, rel=1e-12)

    def test_boundary_derivative(self, lab):
        model = lab.model(1.5)
        assert float(model.du_curve.y[0]) == pytest.approx(-15.0 / 16.0, rel=1e-12)

    def test_capacity(self, lab):
        assert lab.model(1.5).Kp == pytest.approx(4.0 * PI * math.sqrt(60.0), rel=1e-12)

    def test_boundary_W(self, lab):
        W0, dW0 = ws_boundary_data(lab.model(1.5))
        assert W0 == pytest.approx(PI * (15.0 / 16.0) ** 2, rel=1e-12)
        assert dW0 == pytest.approx(4.0 * W0, rel=1e-10)


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
class TestProfileShape:
    def test_potential_normalized_and_decreasing(self, lab, p):
        u = lab.model(p).u_curve.y
        assert u[0] == 1.0
        assert np.all(np.diff(u) < 0.0)
        assert u[-1] > 0.0

    def test_level_parameter_starts_at_zero_and_grows(self, lab, p):
        t = lab.model(p).t_of_r.y
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0.0)

    def test_spline_potential_matches_grid(self, lab, p):
        model = lab.model(p)
        assert np.allclose(model.level_data(model.r_grid).u, model.u_curve.y, rtol=1e-12)

    def test_level_data_matches_sampled_W(self, lab, p):
        model = lab.model(p)
        data = model.level_data(model.r_grid)
        assert np.allclose(data.W, model.Ws_curve.y, rtol=1e-9)
        assert np.allclose(data.dWdt, model.dWs_curve.y, rtol=1e-9)

    def test_W_approaches_asymptotic_plateau(self, lab, p):
        # W tends to 4 pi (3-p)^2 with O(1/r) corrections; at R_max = 1e6
        # the remaining gap is a few parts in 1e6.
        W_inf = 4.0 * PI * (3.0 - p) ** 2
        assert float(lab.model(p).Ws_curve.y[-1]) == pytest.approx(W_inf, rel=1e-5)

    def test_minimal_boundary_relation(self, lab, p):
        W0, dW0 = ws_boundary_data(lab.model(p))
        assert dW0 == pytest.approx(2.0 / (p - 1.0) * W0, rel=1e-9)

    def test_flux_integral_radius_independent(self, lab, p):
        # The surface integral of |grad u|^(p-1) over level spheres in the
        # metric (1+1/r)^4 delta, with |grad u| = |u'|/rho^2 and area element
        # rho^4 r^2 dOmega, is the conserved flux K_p on every sphere.
        model = lab.model(p)
        sample = np.geomspace(1.0, model.R_max, 9)
        du = np.abs(model.level_data(sample).du)
        rho = 1.0 + 1.0 / sample
        direct = 4.0 * PI * sample**2 * rho ** (6.0 - 2.0 * p) * du ** (p - 1.0)
        assert np.max(np.abs(direct - model.Kp)) <= model.tol.accept_rel * model.Kp

    def test_tail_normalization_ratios(self, lab, p):
        # c_tilde is the closed form c_fit**((p-1)/(3-p)); the oracle is the
        # limit of the exponential map (r + 3-p) e^(-t/(3-p)) fitted on the grid.
        model = lab.model(p)
        s = 3.0 - p
        r, t = model.r_grid, model.t_of_r.y
        fitted = fit_power_tail(SampledCurve(r, (r + s) * np.exp(-t / s)), 0.0).c0
        assert model.c_tilde == pytest.approx(fitted, rel=1e-12)


class TestValidation:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 2.5])
    def test_p_out_of_range(self, p):
        with pytest.raises(ValueError, match="p must lie"):
            model_profile(p)

    def test_outer_radius_floor(self):
        with pytest.raises(ValueError, match="R_max"):
            model_profile(1.5, R_max=100.0)

    def test_grid_size_floor(self):
        with pytest.raises(ValueError, match="grid points"):
            model_profile(1.5, n=10)

    @pytest.mark.parametrize("p, R_max", [(1.03, 1e6), (1.038, 1e6), (1.05, 1e8)])
    def test_subnormal_tail_refused(self, p, R_max):
        # r**(-2/(p-1)) at R_max would fall below the smallest normal double,
        # where the coefficient solves stall; the refusal names the limit.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"p = {p:g}: .*largest admissible R_max") as exc:
                model_profile(p, R_max=R_max)
        limit = float(str(exc.value).rsplit(" ", 1)[-1])
        assert limit < R_max
        model_profile(p, R_max=max(limit, 1e4), n=64)


def test_profile_independent_of_outer_radius():
    # Doubling R_max moves the seed of the cumulative integral; interior
    # values must not notice beyond the tail-expansion error.
    base = model_profile(1.5)
    wide = model_profile(1.5, R_max=2.0e6)
    probes = np.array([1.0, 10.0, 1.0e4])
    assert np.allclose(wide.level_data(probes).u, base.level_data(probes).u, rtol=1e-10)
    assert wide.Kp == pytest.approx(base.Kp, rel=1e-10)


def _quadrature_reference(p, r):
    """(u, C) from Gauss-Legendre panels on r plus the binomial tail series.

    integral_R^inf x^-kappa (1+1/x)^-beta dx expands in powers of 1/R; the
    series is exact to machine precision at R = 1e6.
    """
    kappa = 2.0 / (p - 1.0)
    beta = 2.0 * (3.0 - p) / (p - 1.0)
    panels = panel_integrals(lambda x: x**-kappa * (1.0 + 1.0 / x) ** -beta, r)
    R = r[-1]
    tail = 0.0
    coeff = 1.0
    for j in range(80):
        if j > 0:
            coeff *= -(beta + j - 1.0) / j
        term = coeff * R ** (1.0 - kappa - j) / (kappa + j - 1.0)
        tail += term
        if abs(term) <= 1e-18 * abs(tail):
            break
    else:
        raise AssertionError("tail series did not converge")
    integral = right_cumulative(panels, tail)
    return integral / integral[0], 1.0 / integral[0]


@pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 1.8, 1.95])
def test_closed_form_matches_quadrature_reference(p):
    model = model_profile(p)
    u_ref, C_ref = _quadrature_reference(p, model.r_grid)
    assert np.max(np.abs(model.u_curve.y / u_ref - 1.0)) <= 1e-13
    assert flux_constant(p) == pytest.approx(C_ref, rel=1e-13)


def test_low_edge_profile_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = model_profile(1.05)
    assert model.u_curve.y[0] == 1.0

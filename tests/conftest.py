"""Shared fixtures: one session-wide cache of models, triples, and flows.

Everything heavy (reference profiles, coefficient solves, level-set flows)
is memoized by key, so the acceptance matrix and the unit tests share work
instead of rebuilding it per test. The two identities that hold by
construction, the perfect-square relation and the W inequality's, are
reduced here by sympy for the unit tests and the acceptance gate alike.
"""

import math
from types import SimpleNamespace

import pytest

from masscap import (
    case_report,
    family_bumped,
    family_flat_exterior,
    family_schwarzschild,
    level_flow,
    model_profile,
    solve_decaying,
    solve_growing,
)
from masscap.coefficients import _abc

P_GRID = (1.2, 1.5, 1.8)
SCHWARZSCHILD_MASSES = (1.0, 2.0, 5.0)
BUMP_EPSILONS = (0.05, 0.1)


def perfect_square_remainder():
    """The relation that makes dQ/dt a perfect square, reduced by sympy.

    g - 2(p-2) h + (p-1)(3-p) dh/dt + 2 c_h h W'/W with c_h = (p-1)(5-p)/4,
    where dh/dt = (b g + c h) dr/dt with coefficients._abc's b and c, as
    both triples take g. Free symbols p, W, dW/dr, dr/dt, g and h; the
    result is 0 exactly when the relation holds as algebra.
    """
    import sympy as sp

    p = sp.Symbol("p", positive=True)
    W, dWdr, drdt, g, h = sp.symbols("W dWdr drdt g h", nonzero=True)
    d = SimpleNamespace(W=W, dWdr=dWdr, drdt=drdt, dWdt=dWdr * drdt)
    _, b, c, _ = _abc(p, d)
    ch = (p - 1) * (5 - p) / 4
    res = g - 2 * (p - 2) * h + (p - 1) * (3 - p) * (b * g + c * h) * drdt
    res += 2 * ch * h * d.dWdt / W
    # _abc writes its constants as floats; each is an exact binary fraction,
    # so rational=True keeps the expression exact.
    return sp.cancel(sp.nsimplify(res, rational=True))


def w_identity():
    """((p, phi, phi', phi'', q), W', remainder) of the W inequality on a flow.

    W = 4 pi (p-1)^2 (phi q)^2 with q = u'/u, and its t-derivatives by the
    chain rule along the flow: dt/ds = (1-p) q, and u' = -C phi^-kappa,
    kappa = 2/(p-1), gives dq/ds = -kappa q phi'/phi - q^2. The remainder
    is the residual (p-1)(3-p) W'' - W + 4 pi (3-p)^2 - 2(2-p) W'
    - (p-1)(5-p)/4 W'^2/W minus 2 pi (3-p)^2 R phi^2, with
    R = 2(1 - phi'^2)/phi^2 - 4 phi''/phi, cancelled by sympy: 0 when the
    residual is the curvature term as algebra (curvature_term).
    """
    import sympy as sp

    p = sp.Symbol("p", positive=True)
    phi, dphi, ddphi, q = sp.symbols("phi dphi ddphi q", nonzero=True)
    kappa = 2 / (p - 1)
    dq = -kappa * q * dphi / phi - q**2

    def d_dt(expr):
        d_ds = expr.diff(phi) * dphi + expr.diff(dphi) * ddphi + expr.diff(q) * dq
        return d_ds / ((1 - p) * q)

    W = 4 * sp.pi * (p - 1) ** 2 * (phi * q) ** 2
    dW = d_dt(W)
    res = (p - 1) * (3 - p) * d_dt(dW) - W + 4 * sp.pi * (3 - p) ** 2 - 2 * (2 - p) * dW
    res -= (p - 1) * (5 - p) / 4 * dW**2 / W
    R = 2 * (1 - dphi**2) / phi**2 - 4 * ddphi / phi
    return (p, phi, dphi, ddphi, q), dW, sp.cancel(res - 2 * sp.pi * (3 - p) ** 2 * R * phi**2)


def curvature_term(flow):
    """2 pi (3-p)^2 R phi^2 per flow sample: by w_identity, the W residual."""
    return 2.0 * math.pi * (3.0 - flow.p) ** 2 * flow.R.y * flow.phi.y**2


class Lab:
    """Memoizing builder for every expensive object the tests share."""

    def __init__(self):
        self._models = {}
        self._triples = {}
        self._warps = {}
        self._flows = {}
        self._reports = {}

    def model(self, p):
        if p not in self._models:
            self._models[p] = model_profile(p)
        return self._models[p]

    def triples(self, p):
        """(decaying, growing) coefficient solutions on the reference slice."""
        if p not in self._triples:
            model = self.model(p)
            self._triples[p] = (solve_decaying(model), solve_growing(model))
        return self._triples[p]

    def warp(self, tag, **params):
        key = (tag, tuple(sorted(params.items())))
        if key not in self._warps:
            if tag == "schwarzschild":
                self._warps[key] = family_schwarzschild(**params)
            elif tag == "bumped":
                self._warps[key] = family_bumped(**params)
            elif tag == "flat":
                self._warps[key] = family_flat_exterior(**params)
            else:
                raise ValueError(f"unknown family tag {tag!r}")
        return self._warps[key]

    def flow(self, p, tag, **params):
        key = (p, tag, tuple(sorted(params.items())))
        if key not in self._flows:
            self._flows[key] = level_flow(self.warp(tag, **params), p)
        return self._flows[key]

    def report(self, p, tag, **params):
        key = (p, tag, tuple(sorted(params.items())))
        if key not in self._reports:
            dec, grow = self.triples(p)
            self._reports[key] = case_report(
                self.flow(p, tag, **params), self.model(p), dec, grow
            )
        return self._reports[key]


@pytest.fixture(scope="session")
def lab():
    return Lab()

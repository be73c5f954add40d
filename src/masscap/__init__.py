"""p-harmonic level-set flows, capacities, and sharp mass bounds on
rotationally symmetric asymptotically flat 3-manifolds.

The package builds the reference slice (spatial Schwarzschild of mass 2 in
isotropic coordinates), reconstructs the coefficient triples that make the
associated combinations monotone under nonnegative scalar curvature, runs
level-set flows on warped-product test geometries, and certifies
monotonicity, boundary inequalities, and the sharp capacity-to-mass margin
with equality detection.
"""

from importlib.metadata import PackageNotFoundError, version

from .coefficients import (
    CoefficientSolution,
    model_constancy,
    solve_decaying,
    solve_growing,
)
from .numerics import SampledCurve, Tolerances
from .schwarzschild import (
    ModelGeometry,
    flux_constant,
    model_profile,
)
from .verify import (
    CaseResult,
    VerificationReport,
    case_report,
    certify_case,
    constant_diagnostics,
    evaluate_Q,
    penrose_margin,
    reference_checks,
)
from .warped import (
    FlowProfile,
    WarpProfile,
    capacity_Cp,
    family_bumped,
    family_flat_exterior,
    family_schwarzschild,
    level_flow,
    masses,
    radial_p_harmonic,
    scalar_curvature,
    spline_bump,
)

try:
    __version__ = version("masscap")
except PackageNotFoundError:  # running from a source tree without install
    __version__ = "0.1.0"

__all__ = [
    "CaseResult",
    "CoefficientSolution",
    "FlowProfile",
    "ModelGeometry",
    "SampledCurve",
    "Tolerances",
    "VerificationReport",
    "WarpProfile",
    "capacity_Cp",
    "case_report",
    "certify_case",
    "constant_diagnostics",
    "evaluate_Q",
    "family_bumped",
    "family_flat_exterior",
    "family_schwarzschild",
    "flux_constant",
    "level_flow",
    "masses",
    "model_constancy",
    "model_profile",
    "penrose_margin",
    "radial_p_harmonic",
    "reference_checks",
    "scalar_curvature",
    "solve_decaying",
    "solve_growing",
    "spline_bump",
]

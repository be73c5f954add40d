"""The package's public surface: its names and what importing it loads."""

import importlib
import subprocess
import sys
from pathlib import Path

import masscap

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
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
    "horizon_W_bound",
    "level_flow",
    "mass_functional_Fp",
    "masses",
    "model_constancy",
    "model_profile",
    "monotonicity_report",
    "penrose_margin",
    "perfect_square_residual",
    "q_limits",
    "radial_p_harmonic",
    "reference_checks",
    "scalar_curvature",
    "solve_decaying",
    "solve_growing",
    "spline_bump",
    "w_inequality_residual",
    "ws_boundary_data",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 35
    assert len(set(masscap.__all__)) == len(masscap.__all__)
    assert sorted(masscap.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(masscap, name) is not None


def test_import_does_not_load_scipy_interpolate():
    src = str(Path(masscap.__file__).resolve().parents[1])
    probe = "import sys, masscap; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {probe}"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # perfbench's tracer wraps each (module, dotted attribute) pair by name,
    # so a package name it lists must not disappear unnoticed.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import TARGETS

    assert TARGETS
    for module_name, dotted, _, _ in TARGETS:
        owner = importlib.import_module(module_name)
        for part in dotted.split("."):
            assert hasattr(owner, part), f"{module_name}.{dotted}"
            owner = getattr(owner, part)

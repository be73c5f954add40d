"""The package's public surface: its names and what importing it loads."""

import ast
import dataclasses
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    "level_flow",
    "masses",
    "model_constancy",
    "model_profile",
    "radial_p_harmonic",
    "reference_checks",
    "scalar_curvature",
    "solve_decaying",
    "solve_growing",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 26
    assert len(set(masscap.__all__)) == len(masscap.__all__)
    assert sorted(masscap.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(masscap, name) is not None


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "masscap").glob("*.py")), ids=lambda path: path.name
)
def test_every_module_level_import_is_read(path):
    # No linter ships with the package, so this keeps its one rule: a name
    # imported at module level that nothing in the module reads, counting
    # __all__, is a stale import.
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= {element.value for element in node.value.elts}
    assert sorted(imported - read) == []


def test_array_holding_profiles_compare_and_hash_by_identity(lab):
    model = lab.model(1.5)
    dec, grow = lab.triples(1.5)
    warp, flow = lab.warp("schwarzschild", m=2.0), lab.flow(1.5, "schwarzschild", m=2.0)
    profiles = (model, dec, grow, warp, flow)
    for profile in profiles:
        assert profile == profile
        assert profile != dataclasses.replace(profile)
    assert len(set(profiles)) == len(profiles)


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


# Run in a fresh interpreter: the library's family -> level_flow ->
# case_report path and a CLI suite on the README's families (coarse grids),
# then print which of the heavy scipy subpackages got loaded.
_LOADED_PROBE = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, {src!r})
import masscap, masscap.cli
model = masscap.model_profile(1.5)
dec, grow = masscap.solve_decaying(model), masscap.solve_growing(model)
flow = masscap.level_flow(masscap.family_bumped(1.0, 0.1, n=256), 1.5, n_t=1024)
masscap.case_report(flow, model, dec, grow)
with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "cfg.json"
    cfg.write_text(json.dumps({{
        "p_list": [1.2, 1.5, 1.8],
        "families": [
            {{"tag": "schwarzschild", "params": {{"m": 2.0}}}},
            {{"tag": "bumped", "params": {{"m0": 1.0, "eps": 0.1, "s1": 2.0, "s2": 6.0}}}},
            {{"tag": "flat", "params": {{}}}},
        ],
        "grids": {{"n_s": 256, "n_t": 1024}},
    }}))
    code = masscap.cli.main(["suite", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
print(json.dumps([code, [name for name in ("scipy.integrate", "scipy.optimize") if name in sys.modules]]))
"""


def test_run_never_loads_scipy_integrate():
    # The warping factor and the flow both step on numerics.dop853, whose
    # tableau is read by path: scipy.integrate (which loads scipy.optimize)
    # is not imported late either, it is never imported.
    src = str(Path(masscap.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE.format(src=src)],
        capture_output=True,
        text=True,
        check=True,
    )
    code, loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert code == 0
    assert loaded == []


def test_tracer_names_resolve_on_demand():
    # numerics.solve_ivp and warped.solve_ivp exist only for the benchmark's
    # tracer (module __getattr__); other missing names still raise.
    from masscap import numerics, warped

    for module in (numerics, warped):
        assert module.solve_ivp.__name__ == "solve_ivp"
        with pytest.raises(AttributeError, match=module.__name__):
            module.no_such_name


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


def test_case_report_shares_one_radii_pass(lab, monkeypatch):
    # Both Q curves come from one evaluate_Q call and one level_data pass,
    # as the benchmark's tracer counts them.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import Tracer, per_layer

    flow = lab.flow(1.5, "bumped", m0=1.0, eps=0.1)
    model, (dec, grow) = lab.model(1.5), lab.triples(1.5)
    with Tracer() as tracer:
        masscap.case_report(flow, model, dec, grow)
    counts = per_layer(tracer.spans, tracer.root_leaves)
    assert counts["verify.case_report.calls"] == 1
    assert counts["verify.evaluate_Q.calls"] == 1
    assert counts["schwarzschild.level_data.calls"] == 1

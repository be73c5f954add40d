"""Tests of the benchmark itself: oracles, inputs, span arithmetic, tracing.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import masscap
import masscap.cli
from perfbench import oracles, tracer, workloads
from perfbench.tracer import Span

ROOT = Path(__file__).resolve().parents[2]


def test_oracle_self_test_passes():
    assert oracles.self_test() == []
    assert oracles.reference_Kp(1.5) == pytest.approx(4.0 * math.pi * math.sqrt(60.0), rel=1e-15)


def test_oracles_match_the_package_on_the_reference_slice():
    model = masscap.model_profile(1.5)
    assert oracles.rel_err(model.Kp, oracles.reference_Kp(1.5)) < 1e-11


@pytest.mark.parametrize(
    "make",
    [workloads.suite_inputs, workloads.certify_inputs, workloads.grid_inputs],
)
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def _within(value, lo_hi):
    return lo_hi[0] <= value <= lo_hi[1]


@pytest.mark.parametrize("seed", range(20))
def test_inputs_stay_in_their_stated_ranges(seed):
    config = workloads.suite_inputs(seed)
    assert sorted(config["p_list"]) == workloads.README_CONFIG["p_list"]
    key = lambda fam: fam["tag"]
    assert sorted(config["families"], key=key) == sorted(workloads.README_CONFIG["families"], key=key)

    cases = workloads.certify_inputs(seed)
    kinds = [case["kind"] for case in cases]
    assert (kinds.count("vacuum"), kinds.count("bumped"), kinds.count("refused")) == (2, 4, 2)
    for case in cases:
        assert case["p"] in workloads.CERTIFY_P
        params = case["params"]
        if case["kind"] == "vacuum":
            assert params["m"] in workloads.VACUUM_M
        else:
            assert params["m0"] in workloads.BUMP_M0
            assert (params["s1"], params["s2"]) in workloads.BUMP_SUPPORT
            eps = workloads.BUMP_EPS if case["kind"] == "bumped" else workloads.REFUSED_EPS
            assert params["eps"] in eps

    exponents = workloads.grid_inputs(seed)
    lo, hi = workloads.GRID_RANGE
    width = (hi - lo) / workloads.GRID_BANDS
    assert len(exponents) == workloads.GRID_BANDS
    assert exponents[0] == lo
    for band, p in enumerate(exponents):
        assert lo + band * width <= p <= lo + (band + 1) * width


def _span(id_, parent, start, end, leaves=None):
    return Span(id_, f"s{id_}", parent, None, start, end, leaves=leaves or {})


def test_self_time_is_span_minus_children_and_leaves():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0, leaves={"leaf": [5, 0.5]}),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 9.0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0 - 0.5)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(4.0)
    assert sum(selfs.values()) + 0.5 == pytest.approx(10.0)


def test_solver_counts_go_to_the_calling_layer():
    spans = [
        Span(0, "warped.level_flow", None, None, 0.0, 3.0),
        Span(1, "warped.solve_ivp", 0, None, 0.5, 2.5, attrs={"nfev": 13, "steps": 2}),
        Span(2, "warped.family", None, None, 3.0, 4.0, leaves={"warped.spline_bump": [7, 0.25]}),
    ]
    values = tracer.per_layer(spans)
    assert values["warped.level_flow.nfev"] == 13
    assert values["warped.level_flow.steps"] == 2
    assert values["warped.level_flow.self_s"] == pytest.approx(1.0)
    assert values["warped.spline_bump.calls"] == 7
    assert values["warped.family.self_s"] == pytest.approx(0.75)


def _traced_small_run(tmp_path: Path) -> tuple[int, dict]:
    # Coarse grids keep the test fast; some gates fail on them, which is
    # irrelevant here: only the repetition of the counts is tested.
    config = {
        "p_list": [1.5],
        "families": [
            {"tag": "schwarzschild", "params": {"m": 2.0}},
            {"tag": "bumped", "params": {"m0": 1.0, "eps": 0.1, "s1": 2.0, "s2": 6.0}},
        ],
        "grids": {"n_s": 256, "n_t": 512},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    with tracer.Tracer() as tr:
        code = masscap.cli.main(["suite", "--config", str(cfg), "--out", str(out)])
    shutil.rmtree(out)
    return code, tracer.per_layer(tr.spans, tr.root_leaves)


def test_traced_counts_repeat_exactly_and_originals_come_back(tmp_path):
    originals = (masscap.level_flow, masscap.cli.level_flow, masscap.ModelGeometry.level_data)
    code, first = _traced_small_run(tmp_path)
    code_again, second = _traced_small_run(tmp_path)
    assert code_again == code
    assert (masscap.level_flow, masscap.cli.level_flow, masscap.ModelGeometry.level_data) == originals
    counted = {
        key: value
        for key, value in first.items()
        if key.rsplit(".", 1)[-1] in ("calls", "nfev", "steps", "bytes", "rows", "warnings")
    }
    assert counted == {key: second[key] for key in counted}
    for key in (
        "cli.write_csv.rows",
        "cli.write_csv.bytes",
        "warped.level_flow.nfev",
        "warped.spline_bump.calls",
        "schwarzschild.level_data.calls",
        "numerics.integrate_linear_system.steps",
    ):
        assert counted[key] > 0, key
    assert first["cli.self_s"] > 0.0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify_cases", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("wrong", [False, True])
def test_run_exits_nonzero_when_a_check_fails(wrong, monkeypatch, tmp_path, capsys):
    from perfbench import run

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "grid_inputs", lambda seed: [1.9])
    if wrong:  # a K_p oracle off by a factor of two fails every outcome
        exact = oracles.reference_Kp
        monkeypatch.setattr(oracles, "reference_Kp", lambda p: 2.0 * exact(p))
    code = run.main(["--workload", "reference_grid", "--seed", "1", "--seconds", "1", "--trace", "1"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code == (1 if wrong else 0)
    assert result["correct"] is not wrong
    assert result["failed"] == (2 if wrong else 0)
    assert ("kp_rel_err" in captured.err) is wrong


def test_speed_sampler_samples_and_restores_the_signal_handler():
    import signal
    import time

    from perfbench import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.samples) >= 5
    assert 0.0 < sampler.spent < 0.5
    assert sampler.scaled(1.0) > 0.0

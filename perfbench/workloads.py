"""The three benchmark workloads: seeded inputs, one timed pass, and checks.

Every workload is a closed loop with one caller in one thread. A pass
processes the seeded item list once, in order; `run.py` repeats passes
within the measuring budget. Inputs depend only on the seed (through
`random.Random`), so the same seed always gives the same inputs.

- suite_readme: the `masscap suite` entry point on the README's
  three-family config (schwarzschild, bumped, flat) times p = 1.2, 1.5,
  1.8, into a fresh directory; the seed permutes the config's lists. Items
  are the nine (p, family) cases, timed together.
- certify_cases: library loop over seeded geometries at two fixed
  exponents whose reference model and triples are built in set-up. Items
  are cases: family construction, level_flow, case_report.
- reference_grid: library loop over twelve exponents, one per equal band
  of [1.05, 1.95], the lowest pinned at the domain edge 1.05. Items are
  exponents: model_profile, both coefficient solves, constant_diagnostics
  and model_constancy.

Correctness is checked outside the timed section: expected verdicts per
case kind, the CLI's exit code and report, and the closed-form oracles in
`oracles.py`, each against a fixed tolerance (`ORACLE_TOL`).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import oracles

WORKLOADS = ("suite_readme", "certify_cases", "reference_grid")

README_CONFIG = {
    "p_list": [1.2, 1.5, 1.8],
    "families": [
        {"tag": "schwarzschild", "params": {"m": 2.0}},
        {"tag": "bumped", "params": {"m0": 1.0, "eps": 0.1, "s1": 2.0, "s2": 6.0}},
        {"tag": "flat", "params": {}},
    ],
}

# Family parameters of certify_cases are drawn from fixed grids. Every
# member was run once at both exponents through `run_certify_pass`, and all
# 116 cases (10 vacuum, 24 bumped, 24 refused per exponent) passed. With
# parameters drawn from continuous ranges, about one bumped flow in
# 150 fails level_flow's boundary-landing check (for example m0 = 0.7926,
# eps = 0.1981, s1 = 1.7239, s2 = 6.1877 at p = 1.7), and a benchmark
# workload must not fail.
VACUUM_M = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
BUMP_M0 = (0.8, 1.0, 1.2, 1.4)
BUMP_EPS = (0.05, 0.1, 0.15)
REFUSED_EPS = (-0.03, -0.06, -0.09)
BUMP_SUPPORT = ((1.5, 5.5), (2.0, 6.0))
CERTIFY_P = (1.3, 1.7)
# Per exponent: 1 vacuum, 2 bumped with eps > 0, 1 bumped with eps < 0.
CERTIFY_PATTERN = ("vacuum", "bumped", "refused", "bumped")
GRID_RANGE = (1.05, 1.95)
GRID_BANDS = 12

# Largest accepted relative error against each oracle, 20 to 10^4 times
# what the package reaches today (growing Q(0): 4.5e-8; flow: 2.5e-10;
# ADM mass: 2e-10; capacities: 1e-13), so a real loss of accuracy fails
# the run while rounding changes do not.
ORACLE_TOL = {
    "flow_rel_err": 1e-8,
    "cp_rel_err": 1e-11,
    "adm_rel_err": 1e-8,
    "kp_rel_err": 1e-11,
    "growing_q0_rel_err": 1e-6,
}


def bump_params(m0: float, eps: float, support: tuple[float, float]) -> dict:
    return {"m0": m0, "eps": eps, "s1": support[0], "s2": support[1]}


def family_params(rng: random.Random, kind: str) -> dict:
    if kind == "vacuum":
        return {"m": rng.choice(VACUUM_M)}
    eps = BUMP_EPS if kind == "bumped" else REFUSED_EPS
    return bump_params(rng.choice(BUMP_M0), rng.choice(eps), rng.choice(BUMP_SUPPORT))


def suite_inputs(seed: int) -> dict:
    """The README config; the seed only permutes the order of its lists.

    The CLI orders cases by (p, family), so every permutation must write
    the same files. Seeded exponents or family parameters are not used:
    for p between 1.15 and 1.35 the CLI's w_residual_floor gate fails on
    valid vacuum and bumped geometries (14 of 67 tried), so such a
    workload would fail on many seeds.
    """
    rng = random.Random(f"suite_readme:{seed}")
    config = json.loads(json.dumps(README_CONFIG))
    rng.shuffle(config["p_list"])
    rng.shuffle(config["families"])
    return config


def certify_inputs(seed: int) -> list[dict]:
    """Seeded cases: kind, exponent and family parameters."""
    rng = random.Random(f"certify_cases:{seed}")
    cases = []
    for p in CERTIFY_P:
        for kind in CERTIFY_PATTERN:
            params = family_params(rng, kind)
            cases.append({"id": f"{len(cases):02d}-{kind}-p={p}", "kind": kind, "p": p, "params": params})
    return cases


def grid_inputs(seed: int) -> list[float]:
    """The domain edge p = 1.05, then one exponent drawn in each other band.

    The lowest band is pinned at its lower edge: solve_decaying costs about
    three times more at p = 1.05 than at p = 1.125, so a drawn exponent
    there would make the cost of a pass depend on the seed.
    """
    rng = random.Random(f"reference_grid:{seed}")
    lo, hi = GRID_RANGE
    width = (hi - lo) / GRID_BANDS
    return [lo] + [round(rng.uniform(lo + band * width, lo + (band + 1) * width), 6) for band in range(1, GRID_BANDS)]


# ---------------------------------------------------------------------------
# results


@dataclass
class Outcome:
    """One item of a pass: its latency and whether every check held."""

    item: str
    kind: str
    seconds: float  # raw; run.py scales it to the reference speed
    ok: bool = True
    detail: str = ""
    errors: dict = field(default_factory=dict)

    def fail(self, detail: str) -> None:
        self.ok = False
        self.detail = f"{self.detail}; {detail}" if self.detail else detail

    def error(self, name: str, value: float) -> None:
        self.errors[name] = max(self.errors.get(name, 0.0), value)
        if not value <= ORACLE_TOL[name]:
            self.fail(f"{name} = {value:.3g} exceeds {ORACLE_TOL[name]:g}")


@dataclass
class Pass:
    """One pass over a workload's items; `seconds` is the sum of item times."""

    seconds: float
    outcomes: list[Outcome]
    output_bytes: int = 0
    digest: dict | None = None
    scaled: float = 0.0  # seconds at the reference speed, set by run.py
    probe: float = 0.0  # mean probe time during the pass, set by run.py


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int):
    """One-time set-up of a workload; the only work that precedes timing."""
    import masscap

    if workload != "certify_cases":
        return None
    refs = {}
    for p in CERTIFY_P:
        model = masscap.model_profile(p)
        refs[p] = (model, masscap.solve_decaying(model), masscap.solve_growing(model))
    return refs


# ---------------------------------------------------------------------------
# suite_readme


def run_suite_pass(config: dict, workdir: Path) -> Pass:
    """One `masscap suite` run into a fresh directory."""
    import masscap.cli

    workdir.mkdir(parents=True)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2) + "\n")
    out = workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = masscap.cli.main(["suite", "--config", str(cfg_path), "--out", str(out)])
        seconds = time.perf_counter() - start
    outcomes = _check_suite(config, out, code, seconds)
    files = sorted(path for path in out.rglob("*") if path.is_file())
    digest = {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in files
    }
    size = sum(path.stat().st_size for path in files)
    return Pass(seconds, outcomes, output_bytes=size, digest=digest)


def _check_suite(config: dict, out: Path, code: int, seconds: float) -> list[Outcome]:
    cells = [(p, fam["tag"]) for p in config["p_list"] for fam in config["families"]]
    outcomes = {cell: Outcome(f"p={cell[0]}-{cell[1]}", "suite", seconds / len(cells)) for cell in cells}
    problems = [] if code == 0 else [f"masscap suite exited {code}"]
    try:
        report = json.loads((out / "report.json").read_text())
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    except (OSError, ValueError) as exc:
        report, rows = {"passed": False, "cases": []}, []
        problems.append(f"unreadable output: {exc}")
    if not report["passed"]:
        problems.append("report.json did not pass")
    cases = {(case["p"], case["family"]): case for case in report["cases"]}
    sweep = {(float(row["p"]), row["tag"]): row for row in rows}
    for (p, tag), outcome in outcomes.items():
        for problem in problems:
            outcome.fail(problem)
        case, row = cases.get((p, tag)), sweep.get((p, tag))
        if case is None or row is None:
            outcome.fail("case missing from report.json or sweep.csv")
            continue
        failed = [check["name"] for check in case["checks"] if not check["passed"]]
        if failed or not case["checks"]:
            outcome.fail(f"failed checks {failed}")
        if row["status"] != "ok":
            outcome.fail(f"sweep status {row['status']!r}")
            continue
        params = json.loads(row["params"])
        if tag == "schwarzschild":
            outcome.error("cp_rel_err", oracles.rel_err(float(row["Cp"]), oracles.schwarzschild_Cp(params["m"], p)))
            outcome.error("adm_rel_err", oracles.rel_err(float(row["adm"]), params["m"]))
        elif tag == "flat":
            outcome.error("cp_rel_err", oracles.rel_err(float(row["Cp"]), oracles.flat_Cp(p)))
    return list(outcomes.values())


# ---------------------------------------------------------------------------
# certify_cases


def run_certify_pass(cases: list[dict], refs, tracer=None) -> Pass:
    """Family, level_flow and case_report per case; verdicts checked after timing."""
    import masscap

    tol = masscap.Tolerances()
    outcomes = []
    for case in cases:
        if tracer is not None:
            tracer.case = case["id"]
        p, params, kind = case["p"], case["params"], case["kind"]
        model, dec, grow = refs[p]
        flow = report = refusal = error = None
        start = time.perf_counter()
        try:
            if kind == "vacuum":
                warp = masscap.family_schwarzschild(params["m"])
            else:
                warp = masscap.family_bumped(params["m0"], params["eps"], params["s1"], params["s2"])
            flow = masscap.level_flow(warp, p)
            try:
                report = masscap.case_report(flow, model, dec, grow)
            except ValueError as exc:
                refusal = str(exc)
        except (ValueError, RuntimeError) as exc:
            error = exc
        outcome = Outcome(case["id"], kind, time.perf_counter() - start)
        if error is not None:
            outcome.fail(f"unexpected {type(error).__name__}: {error}")
        else:
            _check_certify(outcome, case, flow, report, refusal, tol)
        outcomes.append(outcome)
    return Pass(sum(outcome.seconds for outcome in outcomes), outcomes)


def _check_certify(outcome: Outcome, case: dict, flow, report, refusal, tol) -> None:
    kind, p, params = case["kind"], case["p"], case["params"]
    if kind == "refused":
        if refusal is None or "scalar curvature" not in refusal:
            outcome.fail(f"negative bump was not refused (got {refusal!r})")
        return
    if refusal is not None:
        outcome.fail(f"refused: {refusal}")
        return
    if report.min_forward_slope < -tol.slope_slack:
        outcome.fail(f"not monotone: slope {report.min_forward_slope:.3g}")
    if kind == "bumped":
        if report.equality_flag or not report.penrose_margin > 0.0:
            outcome.fail(f"bumped verdict wrong: margin {report.penrose_margin!r}")
        return
    m = params["m"]
    if not report.equality_flag or abs(report.penrose_margin) > tol.accept_rel * max(flow.adm, 1.0):
        outcome.fail(f"vacuum verdict wrong: margin {report.penrose_margin!r}")
    phi, W = oracles.schwarzschild_flow(m, p, flow.t_grid)
    outcome.error("flow_rel_err", max(oracles.rel_err(flow.phi.y, phi), oracles.rel_err(flow.W.y, W)))
    outcome.error("cp_rel_err", oracles.rel_err(flow.Cp, oracles.schwarzschild_Cp(m, p)))
    outcome.error("adm_rel_err", oracles.rel_err(flow.adm, m))


# ---------------------------------------------------------------------------
# reference_grid


def run_grid_pass(exponents: list[float], tracer=None) -> Pass:
    """Reference model, both triples and their diagnostics per exponent."""
    import masscap

    outcomes = []
    for p in exponents:
        if tracer is not None:
            tracer.case = f"p={p}"
        error = None
        start = time.perf_counter()
        try:
            model = masscap.model_profile(p)
            dec = masscap.solve_decaying(model)
            grow = masscap.solve_growing(model)
            diag = masscap.constant_diagnostics(model, dec, grow)
            q0, _ = masscap.model_constancy(grow, model)
        except (ValueError, RuntimeError) as exc:
            error = exc
        outcome = Outcome(f"p={p}", "exponent", time.perf_counter() - start)
        outcomes.append(outcome)
        if error is not None:
            outcome.fail(f"unexpected {type(error).__name__}: {error}")
            continue
        if not all(math.isfinite(value) for value in diag.values()):
            outcome.fail("non-finite constant diagnostics")
        outcome.error("kp_rel_err", oracles.rel_err(model.Kp, oracles.reference_Kp(p)))
        outcome.error("growing_q0_rel_err", oracles.rel_err(q0, oracles.growing_Q0(p)))
    return Pass(sum(outcome.seconds for outcome in outcomes), outcomes)


# ---------------------------------------------------------------------------


def median_latency(outcomes: list[Outcome], kind: str) -> tuple[float, int]:
    """(median seconds, sample count) of the items of one kind."""
    samples = [outcome.seconds for outcome in outcomes if outcome.kind == kind]
    return (statistics.median(samples) if samples else 0.0), len(samples)

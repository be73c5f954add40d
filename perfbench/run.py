"""Run one masscap benchmark workload and print its metrics as JSON.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload certify_cases --seed 1 --seconds 30 --trace 0

The package is imported from the checkout's `src/` directory. With
`--trace 0` the run measures the end-to-end metrics of BENCHMARK.json with
tracing off. With `--trace 1` it runs one untraced pass and then one traced
pass of the same inputs, and reports the per-layer metrics; the spans are
written to `.perfbench/spans-<workload>-<seed>.json`.

`--seconds` is the measuring budget: passes over the seeded inputs repeat
while the next one is expected to fit, and a pass is never cut short, so a
run always measures at least one whole pass.

Times in the end-to-end metrics are scaled to a fixed machine speed by
`speed.Sampler`, which samples a fixed piece of work throughout the timed
interval: seconds at the reference speed = work seconds * PROBE_REF_S /
mean probe time. Per-case latencies are scaled by the sampler of their
pass. The per-layer output keeps the raw pass time and the mean probe
time of the untraced pass.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the environment. The exit code is 0 only when every check held: a run with
a wrong output prints its failures on standard error and its result with
`"correct": false`, and exits with 1, so its times are never taken for a
valid measurement. A checkout without masscap source exits with an error
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT))

from perfbench import speed  # noqa: E402  (standard library only)
# Set-up samples per run: this process plus SETUP_REPEATS - 1 fresh interpreters.
SETUP_REPEATS = 3

# Run in a fresh interpreter: import masscap and set the workload up, under
# the speed sampler; print the scaled seconds.
SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {root!r}]
from perfbench import speed
with speed.Sampler() as sampler:
    start = time.perf_counter()
    import masscap
    from perfbench import workloads
    workloads.setup({workload!r}, {seed!r})
    seconds = time.perf_counter() - start
print(sampler.scaled(seconds - sampler.spent))
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_masscap() -> None:
    """Import masscap from this checkout's src/, never from elsewhere."""
    if not (SRC / "masscap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no masscap source under {SRC}")
    sys.path.insert(0, str(SRC))
    import masscap

    if Path(masscap.__file__).resolve().parent != SRC / "masscap":
        raise SystemExit(f"perfbench: imported masscap from {masscap.__file__}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def fresh_setup_samples(workload: str, seed: int, repeats: int) -> list[float]:
    """Scaled import plus workload set-up, each in a fresh interpreter."""
    code = SETUP_PROBE.format(src=str(SRC), root=str(ROOT), workload=workload, seed=seed)
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(done.stdout))
    return samples


class Runner:
    """Builds a workload's inputs once and runs passes over them."""

    def __init__(self, workload: str, seed: int) -> None:
        from perfbench import workloads

        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.refs = workloads.setup(workload, seed)
        self.inputs = {
            "suite_readme": workloads.suite_inputs,
            "certify_cases": workloads.certify_inputs,
            "reference_grid": workloads.grid_inputs,
        }[workload](seed)
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        self.count = 0

    def pass_items(self, tracer=None):
        """One pass over the inputs, traced when a tracer is given."""
        self.count += 1
        if self.workload == "suite_readme":
            if tracer is not None:
                tracer.case = "suite"
            return self.w.run_suite_pass(self.inputs, self.tmp / f"pass{self.count}")
        if self.workload == "certify_cases":
            return self.w.run_certify_pass(self.inputs, self.refs, tracer)
        return self.w.run_grid_pass(self.inputs, tracer)

    def run_pass(self):
        """An untraced pass, timed under the speed sampler."""
        with speed.Sampler() as sampler:
            start = time.perf_counter()
            one = self.pass_items()
            elapsed = time.perf_counter() - start
        # Item times include the sampler's handler; take out its share.
        share = 1.0 - sampler.spent / elapsed
        one.seconds *= share
        one.scaled = sampler.scaled(one.seconds)
        for outcome in one.outcomes:
            outcome.seconds = sampler.scaled(outcome.seconds * share)
        one.probe = statistics.fmean(sampler.samples)
        return one

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def timed_passes(runner: Runner, budget: float):
    """Passes while another one is expected to fit in the budget; at least one."""
    passes = [runner.run_pass()]
    elapsed = passes[0].seconds
    while elapsed + elapsed / len(passes) <= budget:
        passes.append(runner.run_pass())
        elapsed += passes[-1].seconds
    return passes


def check_same_output(passes) -> None:
    """Every suite pass must write the same bytes as the first (README promise)."""
    for one in passes[1:]:
        if one.digest != passes[0].digest:
            for outcome in one.outcomes:
                outcome.fail("output tree differs from the first pass of the same seed")


def end_to_end(runner: Runner, budget: float, setup_seconds: float):
    passes = timed_passes(runner, budget)
    check_same_output(passes)
    wall = statistics.fmean(one.scaled for one in passes)
    setup = [setup_seconds] + fresh_setup_samples(runner.workload, runner.seed, SETUP_REPEATS - 1)
    return passes, {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cases_per_s": len(passes[0].outcomes) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(runner: Runner, env: dict):
    """One untraced pass, then one traced pass of the same inputs."""
    from perfbench import tracer as tracing

    plain = runner.run_pass()
    tracer = tracing.Tracer()
    with tracer:
        traced = runner.pass_items(tracer)
    passes = [plain, traced]
    check_same_output(passes)
    values = tracing.per_layer(tracer.spans, tracer.root_leaves)
    values["wall_raw_s"] = plain.seconds
    values["probe_s"] = plain.probe
    values["trace_overhead_s"] = traced.seconds - plain.seconds
    values["output_mb"] = plain.output_bytes / 1e6
    for kind in ("vacuum", "bumped"):
        values[f"{kind}_case_p50_s"], values[f"{kind}_case_n"] = runner.w.median_latency(plain.outcomes, kind)
    for one in passes:
        for outcome in one.outcomes:
            for name, value in outcome.errors.items():
                values[name] = max(values.get(name, 0.0), value)
    outcomes = [outcome for one in passes for outcome in one.outcomes]
    values["failed_frac"] = sum(not outcome.ok for outcome in outcomes) / len(outcomes)
    tracer.write(
        OUT / f"spans-{runner.workload}-{runner.seed}.json",
        {"workload": runner.workload, "seed": runner.seed, "environment": env},
    )
    return passes, values


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Set-up in this fresh interpreter is the first set-up sample.
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        import_masscap()
        from perfbench import workloads

        if args.workload not in workloads.WORKLOADS:
            raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
        runner = Runner(args.workload, args.seed)
        setup_seconds = sampler.scaled(time.perf_counter() - start - sampler.spent)

    from perfbench import oracles

    env = environment()
    oracle_failures = oracles.self_test()
    for message in oracle_failures:
        print(f"perfbench: oracle self-test: {message}", file=sys.stderr)
    try:
        if args.trace:
            passes, values = traced_run(runner, env)
        else:
            passes, values = end_to_end(runner, args.seconds, setup_seconds)
    finally:
        runner.close()

    outcomes = [outcome for one in passes for outcome in one.outcomes]
    failed = sum(not outcome.ok for outcome in outcomes)
    for outcome in outcomes:
        if not outcome.ok:
            print(f"perfbench: {outcome.item}: {outcome.detail}", file=sys.stderr)
    metrics = {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in spec["per_layer" if args.trace else "end_to_end"]
    }
    correct = failed == 0 and not oracle_failures
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a source checkout:

    python3 perfbench/collect.py --workloads certify_cases --seeds 1-10 --out summary.json

Runs are sequential, one process at a time. For each workload and metric
the summary holds every value, the median, the quartiles (from
`statistics.quantiles(values, n=4)`) and the spread: the distance between
the quartiles as a share of the median. Per-layer runs (`--trace 1`) are
summarised the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode:
        sys.exit(f"{workload} seed={seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-2])["environment"]
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            shown = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown if not args.trace else ''}",
                  flush=True)
        metrics = {
            name: summarise([run["metrics"][name]["value"] for run in runs])
            for name in runs[0]["metrics"]
        }
        summary["workloads"][workload] = {
            "environment": runs[0]["environment"],
            "seeds": seed_range(args.seeds),
            "all_correct": all(run["correct"] for run in runs),
            "metrics": metrics,
        }
        for name, stats in metrics.items():
            if not args.trace:
                print(f"  {name:14s} median {stats['median']:.4g}  spread {stats['spread']:.2%}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

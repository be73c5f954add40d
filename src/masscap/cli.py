"""Configuration-driven command line for the capacity-mass toolkit.

Subcommands:

    model   write the reference-slice curves and constants per p
    coeffs  write the coefficient-triple curves and closed-form constants per p
    verify  run the certification pipeline per (p, family); emit a report
    sweep   one summary row per (p, family) into sweep.csv
    suite   model + coeffs + verify + sweep on one pipeline, which
            computes each (p, family) case once

The run is described by a JSON config file (see DEFAULT_CONFIG for the
schema and defaults; every key is optional). --p, --out and --tol override
the config's p grid, output directory and accept_rel tolerance.

Outputs are byte-deterministic for a fixed config and package version:
floats are written with repr (IEEE-754 round-trip), rows are ordered by
(p, family tag, params), nothing records wall-clock time, and every file
embeds the version (CSV as a leading '#' comment line, JSON as a key).
A numeric table is written from its columns, and a column that several
tables write (the model grid r, each p's t, each flow's t) is formatted
once per run; the files keep the bytes of a cell-by-cell writer.
verify, sweep and suite build every family, reference model and triple
pair once, then certify the (p, family) cases with one function, in forked
worker processes (one per core) or, with one worker, in this process; the
files are the same bytes either way. The workers live as long as the
run's pipeline; suite starts them before the main process writes the
model and coeffs tables, so both run at once.

Exit codes: 0 when every gating check passes, 1 on check or pipeline
failure, 2 on malformed configuration or usage.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import functools
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import (
    CoefficientSolution,
    model_constancy,
    solve_decaying,
    solve_growing,
)
from . import warped
from .numerics import Tolerances, _check_p
from .schwarzschild import (
    DEFAULT_N_R,
    DEFAULT_R_MAX,
    ModelGeometry,
    model_profile,
)
from .verify import CaseResult, _nodes, certify_case, reference_checks
from .warped import DEFAULT_N_S, DEFAULT_N_T, DEFAULT_S_MAX, WarpProfile, level_flow

__all__ = ["ConfigError", "RunConfig", "main"]

DEFAULT_CONFIG = {
    "p_list": [1.5],
    "families": [{"tag": "schwarzschild", "params": {"m": 2.0}}],
    "grids": {
        "R_max": DEFAULT_R_MAX,
        "n_points": DEFAULT_N_R,
        "s_max": DEFAULT_S_MAX,
        "n_s": DEFAULT_N_S,
        "n_t": DEFAULT_N_T,
    },
    # slope_slack stays a library setting: Tolerances(slope_slack=...).
    "tolerances": {"accept_rel": Tolerances().accept_rel},
    "outputs": {"csv_dir": "masscap_out", "report_path": None},
}

# tag -> (constructor in masscap.warped, required params, allowed params).
# The constructor is looked up by name when a family is built, so a wrapper
# put on the module attribute (perfbench's tracer) sees the call.
_FAMILIES = {
    "schwarzschild": ("family_schwarzschild", {"m"}, {"m"}),
    "bumped": ("family_bumped", {"m0", "eps"}, {"m0", "eps", "s1", "s2"}),
    "flat": ("family_flat_exterior", set(), set()),
}


class ConfigError(ValueError):
    """Malformed run configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description."""

    p_list: tuple[float, ...]
    families: tuple[tuple[str, dict], ...]
    R_max: float
    n_points: int
    s_max: float
    n_s: int
    n_t: int
    tol: Tolerances
    csv_dir: Path
    report_path: Path


def _require_number(value, what: str) -> float:
    """value as a float; JSON's NaN and Infinity, and ints past the doubles, are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _require_int(value, what: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {value}")
    return value


def _validate_family(entry) -> tuple[str, dict]:
    if not isinstance(entry, dict) or "tag" not in entry:
        raise ConfigError(f"each family needs a 'tag' key, got {entry!r}")
    unknown = set(entry) - {"tag", "params"}
    if unknown:
        raise ConfigError(f"unknown family keys {sorted(unknown)}")
    tag = entry["tag"]
    if tag not in _FAMILIES:
        raise ConfigError(f"unknown family tag {tag!r}; known: {sorted(_FAMILIES)}")
    _, required, allowed = _FAMILIES[tag]
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"family params must be an object, got {params!r}")
    missing = required - set(params)
    if missing:
        raise ConfigError(f"family {tag!r} is missing params {sorted(missing)}")
    extra = set(params) - allowed
    if extra:
        raise ConfigError(f"family {tag!r} does not take params {sorted(extra)}")
    clean = {key: _require_number(params[key], f"{tag}.{key}") for key in params}
    for mass_key in ("m", "m0"):
        if mass_key in clean and not clean[mass_key] > 0.0:
            raise ConfigError(f"{tag}.{mass_key} must be positive")
    return tag, clean


def make_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, the config file and flag overrides, then validate."""
    raw = copy.deepcopy(DEFAULT_CONFIG)
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a JSON object")
        for key, value in loaded.items():
            if key not in raw:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(raw[key], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"config key {key!r} must be an object")
                unknown = set(value) - set(raw[key])
                if unknown:
                    raise ConfigError(f"unknown {key} keys {sorted(unknown)}")
                raw[key].update(value)
            else:
                raw[key] = value

    if args.p is not None:
        raw["p_list"] = [args.p]
    if args.tol is not None:
        raw["tolerances"]["accept_rel"] = args.tol
    if args.out is not None:
        raw["outputs"]["csv_dir"] = args.out

    p_list = raw["p_list"]
    if not isinstance(p_list, list) or not p_list:
        raise ConfigError("p_list must be a non-empty list")
    p_clean = [_require_number(p, "p") for p in p_list]
    for p in p_clean:
        try:
            _check_p(p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    repeats = sorted({p for p in p_clean if p_clean.count(p) > 1})
    if repeats:
        raise ConfigError(f"p_list repeats the exponents {repeats}")

    families = raw["families"]
    if not isinstance(families, list) or not families:
        raise ConfigError("families must be a non-empty list")
    fam_clean = tuple(_validate_family(entry) for entry in families)
    slugs = [_slug(tag, params) for tag, params in fam_clean]
    clashes = sorted({slug for slug in slugs if slugs.count(slug) > 1})
    if clashes:
        raise ConfigError(f"families share the output names {clashes}")

    grids = raw["grids"]
    R_max = _require_number(grids["R_max"], "grids.R_max")
    if R_max < 1.0e4:
        raise ConfigError(f"grids.R_max must be >= 1e4, got {R_max:g}")
    s_max = _require_number(grids["s_max"], "grids.s_max")
    if s_max < 100.0:
        raise ConfigError(f"grids.s_max must be >= 100, got {s_max:g}")
    n_points = _require_int(grids["n_points"], "grids.n_points", 64)
    n_s = _require_int(grids["n_s"], "grids.n_s", 16)
    n_t = _require_int(grids["n_t"], "grids.n_t", 16)

    try:
        tol = Tolerances(**raw["tolerances"])
    except ValueError as exc:
        raise ConfigError(f"bad tolerances: {exc}") from exc

    csv_dir, report_path = raw["outputs"]["csv_dir"], raw["outputs"]["report_path"]
    if not (isinstance(csv_dir, str) and csv_dir):
        raise ConfigError(f"outputs.csv_dir must be a non-empty string, got {csv_dir!r}")
    if not (report_path is None or isinstance(report_path, str) and report_path):
        raise ConfigError(
            f"outputs.report_path must be a non-empty string or null, got {report_path!r}"
        )
    csv_dir = Path(csv_dir)
    report_path = csv_dir / "report.json" if report_path is None else Path(report_path)

    return RunConfig(
        p_list=tuple(p_clean),
        families=fam_clean,
        R_max=R_max,
        n_points=n_points,
        s_max=s_max,
        n_s=n_s,
        n_t=n_t,
        tol=tol,
        csv_dir=csv_dir,
        report_path=report_path,
    )


# ---------------------------------------------------------------------------
# deterministic writers


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write a version line, the header and rows, iterating rows once.

    A row that is a str is one line of a numeric table, already joined
    (_lines) from the repr of its values: the bytes csv.writer writes for
    their _cell strings, since a float repr needs no quoting. Any other row
    goes through csv.writer and _cell.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# masscap {__version__}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                fh.write(row + "\n")
            else:
                writer.writerow([_cell(value) for value in row])


def _texts(column: np.ndarray):
    """The repr of each value of a float column, formatted as they are read."""
    return map(repr, column.tolist())


def _lines(*texts):
    """The rows of a numeric table, one joined line each, from its columns' texts."""
    return map(",".join, zip(*texts))


def _write_report(path: Path, report: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # numpy scalars (np.bool_, np.integer) as their Python values.
    text = json.dumps(report, indent=2, sort_keys=True, default=np.generic.item)
    path.write_text(text + "\n")


def _slug(tag: str, params: dict) -> str:
    parts = [tag] + [f"{key}={params[key]:g}" for key in sorted(params)]
    return "-".join(parts)


def _case_order(cfg: RunConfig):
    cells = [(p, tag, params) for p in cfg.p_list for tag, params in cfg.families]
    return sorted(cells, key=lambda c: (c[0], c[1], json.dumps(c[2], sort_keys=True)))


# ---------------------------------------------------------------------------
# the run's shared pipeline


def _pipeline_failure(exc: Exception) -> int:
    print(f"masscap: {exc}", file=sys.stderr)
    return 1


class _Pipeline:
    """One run's models, coefficient triples, families and case results.

    Each is built at most once per run, so every subcommand of a suite sees
    the same objects; a build that raised keeps its exception, which every
    later request raises again. start builds them all, then starts _certify
    on each case in forked workers, or leaves it to cases() in this process;
    a flow and its Q curves live only in the process that certifies their
    case, are written there with write_curves (the flow at the nodes the
    gates read), and never come back: case results are light. The texts of
    model grids that the model and coeffs tables write are kept too
    (grid_texts). A pipeline is used as a context manager: leaving it
    stops the workers.
    """

    def __init__(self, cfg: RunConfig, write_curves: bool = False) -> None:
        self.cfg = cfg
        self.write_curves = write_curves
        # each holds the built object, or the exception its build raised
        self._models: dict[float, ModelGeometry | Exception] = {}
        self._triples: dict[float, tuple[CoefficientSolution, ...] | Exception] = {}
        self._warps: dict[tuple, WarpProfile | Exception] = {}
        self._cases: list[tuple[float, str, dict, CaseResult]] | None = None
        self._pending: list[tuple[tuple, object]] | None = None  # (case, its result's getter)
        self._pool: ProcessPoolExecutor | None = None
        # exponents of the minimal-boundary cases, whose triples the report covers
        self.minimal_ps: set[float] = set()
        # the texts of the models' r grid and of each p's t grid; see grid_texts
        self._r_texts: list[str] | None = None
        self._t_texts: dict[float, list[str]] = {}

    def model(self, p: float) -> ModelGeometry:
        cfg = self.cfg
        return _once(
            self._models, p, model_profile, p, R_max=cfg.R_max, n=cfg.n_points, tol=cfg.tol
        )

    def triples(self, p: float) -> tuple[CoefficientSolution, CoefficientSolution]:
        model = self.model(p)
        return _once(self._triples, p, lambda: (solve_decaying(model), solve_growing(model)))

    def grid_texts(self, p: float) -> tuple[list[str], list[str]]:
        """The reprs of p's model.r_grid and model.t_grid, formatted once per run.

        Every model of a run has the same r grid, geomspace(1, R_max,
        n_points), so its texts are formatted for the first model asked for;
        the t texts once per p.
        """
        if p not in self._t_texts:
            model = self.model(p)
            if self._r_texts is None:
                self._r_texts = list(_texts(model.r_grid))
            self._t_texts[p] = list(_texts(model.t_grid))
        return self._r_texts, self._t_texts[p]

    def family(self, tag: str, params: dict) -> WarpProfile:
        key, build = (tag, tuple(sorted(params.items()))), getattr(warped, _FAMILIES[tag][0])
        return _once(self._warps, key, build, **params, s_max=self.cfg.s_max, n=self.cfg.n_s)

    def start(self) -> None:
        """Build every family, model and triple pair, then start the cases; later calls do nothing.

        minimal_ps records the exponents whose minimal-boundary cases got
        their triples; a failed build is left to _certify, which gets its
        kept exception. With min(os.cpu_count(), number of cases) > 1 and
        fork, the cases go to a pool of forked workers that inherit this
        pipeline (only cases and light results are pickled; spawn would
        import numpy and scipy again, and the pool forks them all at its
        first submit, before it starts its own thread) and certify while the
        run goes on; otherwise cases() certifies them here. The pool lives
        as long as the pipeline's with block.
        """
        if self._pending is not None:
            return
        order = _case_order(self.cfg)
        for p, tag, params in order:
            with contextlib.suppress(ValueError, RuntimeError):
                warp = self.family(tag, params)
                if warp.minimal_boundary:
                    self.triples(p)
                    self.minimal_ps.add(p)
                else:
                    self.model(p)
        workers = min(os.cpu_count() or 1, len(order))
        if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
            self._pending = [(case, functools.partial(self._certify, *case)) for case in order]
            return
        fork = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(workers, mp_context=fork, initializer=_adopt, initargs=(self,))
        self._pool = pool
        self._pending = [(case, pool.submit(_certify_in_worker, case).result) for case in order]

    def __enter__(self) -> _Pipeline:
        return self

    def __exit__(self, *exc_info) -> None:
        """Cancel the cases not started and wait for the workers, on every path out."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            # The pool holds this pipeline (initargs): a kept pool is a cycle
            # that holds the run's models and triples until a gc collection.
            self._pool = None

    def cases(self) -> list[tuple[float, str, dict, CaseResult]]:
        """(p, tag, params, result) per case in _case_order, collected on the first call."""
        if self._cases is None:
            self.start()
            self._cases = [(*case, result()) for case, result in self._pending]
            self._pending = []  # with one worker its getters hold this pipeline: a cycle
        return self._cases

    def _certify(self, p: float, tag: str, params: dict) -> CaseResult:
        """The light result of one case."""
        flow = dec = grow = None
        stage = "family_construction"
        try:
            warp = self.family(tag, params)
            stage = "reference_model"
            model = self.model(p)
            if warp.minimal_boundary:
                dec, grow = self.triples(p)
                stage = "level_flow"
                flow = level_flow(warp, p, n_t=self.cfg.n_t)
        except (ValueError, RuntimeError) as exc:
            return CaseResult.failed(p, tag, params, stage, exc)
        result = certify_case(warp, model, flow, dec, grow)
        if self.write_curves and flow is not None and result.report is not None:
            _write_curves(self.cfg.csv_dir, p, _slug(tag, params), flow, result.report.curves)
        return result.light()


def _once(cache: dict, key, build, /, *args, **kwargs):
    """cache[key] = build(*args, **kwargs) on the first request; a failed build raises again."""
    if key not in cache:
        try:
            cache[key] = build(*args, **kwargs)
        except (ValueError, RuntimeError) as exc:
            cache[key] = exc
    value = cache[key]
    if isinstance(value, Exception):
        raise value
    return value


# In a forked worker, the pipeline it certifies cases of; None elsewhere.
_worker_pipe: _Pipeline | None = None


def _adopt(pipe: _Pipeline) -> None:
    global _worker_pipe
    _worker_pipe = pipe


def _certify_in_worker(case: tuple[float, str, dict]) -> CaseResult:
    return _worker_pipe._certify(*case)


def _write_curves(csv_dir: Path, p: float, slug: str, flow, curves: dict) -> None:
    """Write the flow at _nodes(flow), the samples the gates read, and the Q curves on a prefix.

    The flow's t is formatted once: each Q curve's t is a prefix of it
    (evaluate_Q keeps the first n of the flow's node t), so a q table's t
    texts are the flow's, cut at the Q's length.
    """
    nodes = _nodes(flow)
    t_texts = list(_texts(flow.t_grid[nodes]))
    rest = (flow.phi.y, flow.u.y, flow.W.y, flow.dWdt.y, flow.H.y, flow.R.y, flow.hawking.y)
    _write_csv(
        csv_dir / f"warped-p={p!r}-{slug}.csv",
        ["s", "t", "phi", "u", "W", "dWdt", "H", "R", "hawking"],
        _lines(_texts(flow.s_of_t.y[nodes]), t_texts, *(_texts(column[nodes]) for column in rest)),
    )
    for flavor in ("decaying", "growing"):
        path = csv_dir / f"q-{flavor}-p={p!r}-{slug}.csv"
        _write_csv(path, ["t", "Q"], _lines(t_texts, _texts(curves[flavor])))


# ---------------------------------------------------------------------------
# subcommands


def cmd_model(pipe: _Pipeline) -> int:
    cfg = pipe.cfg
    const_rows = []
    try:
        for p in sorted(cfg.p_list):
            model = pipe.model(p)
            d = model.grid_data
            r_texts, t_texts = pipe.grid_texts(p)
            _write_csv(
                cfg.csv_dir / f"model-p={p!r}.csv",
                ["r", "u", "du", "t", "W", "dWdt"],
                _lines(r_texts, _texts(d.u), _texts(d.du), t_texts, _texts(d.W), _texts(d.dWdt)),
            )
            W0 = float(d.W[0])
            const_rows.append(
                (p, model.flux_constant, model.Kp, model.c_fit, model.c_tilde, W0)
            )
            print(f"model p={p!r}: Kp={float(model.Kp)!r} W0={W0!r}")
    except (ValueError, RuntimeError) as exc:
        return _pipeline_failure(exc)
    _write_csv(
        cfg.csv_dir / "model-constants.csv",
        ["p", "flux_constant", "Kp", "c_fit", "c_tilde", "W0"],
        const_rows,
    )
    return 0


def cmd_coeffs(pipe: _Pipeline) -> int:
    cfg = pipe.cfg
    const_rows = []
    try:
        for p in sorted(cfg.p_list):
            model = pipe.model(p)
            for sol in pipe.triples(p):
                _write_csv(
                    cfg.csv_dir / f"coeffs-{sol.flavor}-p={p!r}.csv",
                    ["r", "t", "f", "g", "h"],
                    _lines(*pipe.grid_texts(p), _texts(sol.f), _texts(sol.g), _texts(sol.h)),
                )
                Q0, dev = model_constancy(sol, model)
                const_rows.append((p, sol.flavor, sol.f[0], sol.g[0], sol.h[0], Q0, dev))
                print(f"coeffs p={p!r} {sol.flavor}: Q0={float(Q0)!r} max_dev={float(dev)!r}")
    except (ValueError, RuntimeError) as exc:
        return _pipeline_failure(exc)
    _write_csv(
        cfg.csv_dir / "coeff-constants.csv",
        ["p", "flavor", "f0", "g0", "h0", "Q0", "max_deviation"],
        const_rows,
    )
    return 0


def cmd_verify(pipe: _Pipeline) -> int:
    cfg = pipe.cfg
    cases = []
    for p, tag, params, result in pipe.cases():
        cases.append(
            {
                "p": p,
                "family": tag,
                "params": params,
                "checks": result.checks,
                "diagnostics": result.report.diagnostics if result.report else {},
            }
        )
        print(
            f"verify p={p!r} {_slug(tag, params)}: "
            f"{'pass' if result.passed else 'FAIL'} "
            f"({sum(c['passed'] for c in result.checks)}/{len(result.checks)} checks)"
        )

    reference = {}
    for p in sorted(pipe.minimal_ps):
        checks, diagnostics = reference_checks(pipe.model(p), *pipe.triples(p))
        reference[repr(p)] = {"checks": checks, "diagnostics": diagnostics}
        n_passed = sum(check["passed"] for check in checks)
        verdict = "pass" if n_passed == len(checks) else "FAIL"
        print(f"reference p={p!r}: {verdict} ({n_passed}/{len(checks)} checks)")

    entries = cases + list(reference.values())
    passed = all(check["passed"] for entry in entries for check in entry["checks"])
    report = {
        "version": __version__,
        "passed": passed,
        "cases": cases,
        "reference": reference,
    }
    _write_report(cfg.report_path, report)
    print(f"report: {cfg.report_path} ({'pass' if passed else 'FAIL'})")
    return 0 if passed else 1


def _sweep_status(result: CaseResult) -> str:
    """ok, fail: <failed check names>, or error: <the stopped stage's message>."""
    if result.report is None:
        return f"error: {' '.join(result.checks[0]['detail'].split())}"
    failed = [check["name"] for check in result.checks if not check["passed"]]
    return f"fail: {' '.join(failed)}" if failed else "ok"


def cmd_sweep(pipe: _Pipeline) -> int:
    cfg = pipe.cfg
    rows = []
    for p, tag, params, result in pipe.cases():
        report = result.report
        if report is None:
            columns = [None] * 7
        else:
            diag = report.diagnostics
            columns = [
                diag["Cp"], pipe.model(p).Kp, diag["adm"], report.penrose_margin,
                diag.get("min_slope_decaying"), diag.get("min_slope_growing"), report.equality_flag,
            ]
        rows.append([p, tag, json.dumps(params, sort_keys=True), *columns, _sweep_status(result)])
    header = ["p", "tag", "params", "Cp", "Kp", "adm", "margin"]
    header += ["min_slope_dec", "min_slope_grow", "equality", "status"]
    _write_csv(cfg.csv_dir / "sweep.csv", header, rows)
    print(f"sweep: {len(rows)} rows -> {cfg.csv_dir / 'sweep.csv'}")
    return 0 if all(result.passed for *_, result in pipe.cases()) else 1


def cmd_suite(pipe: _Pipeline) -> int:
    """The four subcommands; the cases are certified while model and coeffs write."""
    pipe.start()
    return max(cmd_model(pipe), cmd_coeffs(pipe), cmd_verify(pipe), cmd_sweep(pipe))


_COMMANDS = {
    "model": cmd_model,
    "coeffs": cmd_coeffs,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "suite": cmd_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masscap",
        description="Level-set capacity and mass certification runs.",
    )
    parser.add_argument(
        "--version", action="version", version=f"masscap {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "model": "write reference-slice curves and constants",
        "coeffs": "write coefficient-triple curves and closed-form constants",
        "verify": "run all certification checks and write the report",
        "sweep": "write one summary row per (p, family)",
        "suite": "model + coeffs + verify + sweep",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON run configuration")
        sp.add_argument("--p", type=float, help="override the config's p grid")
        sp.add_argument("--out", metavar="DIR", help="override the output directory")
        sp.add_argument("--tol", type=float, help="override accept_rel")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = make_config(args)
    except ConfigError as exc:
        print(f"masscap: {exc}", file=sys.stderr)
        return 2
    try:
        with _Pipeline(cfg, write_curves=args.command in ("verify", "suite")) as pipe:
            return _COMMANDS[args.command](pipe)
    except OSError as exc:
        return _pipeline_failure(exc)


if __name__ == "__main__":
    raise SystemExit(main())

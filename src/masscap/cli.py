"""Configuration-driven command line for the capacity-mass toolkit.

Subcommands:

    model   write the reference-slice curves and constants per p
    coeffs  write the coefficient-triple curves and fit constants per p
    verify  run the certification pipeline per (p, family); emit a report
    sweep   one summary row per (p, family) into sweep.csv
    suite   model + coeffs + sweep + verify in one invocation

The run is described by a JSON config file (see DEFAULT_CONFIG for the
schema and defaults; every key is optional). --p, --out and --tol override
the config's p grid, output directory and accept_rel tolerance.

Outputs are byte-deterministic for a fixed config and package version:
floats are written with repr (IEEE-754 round-trip), rows are ordered by
(p, family tag, params), nothing records wall-clock time, and every file
embeds the version (CSV as a leading '#' comment line, JSON as a key).

Exit codes: 0 when every gating check passes, 1 on check or pipeline
failure, 2 on malformed configuration or usage.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
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
from .numerics import Tolerances
from .schwarzschild import ModelGeometry, model_profile, ws_boundary_data
from .verify import case_report, constant_diagnostics, evaluate_Q
from .warped import (
    DEFAULT_N_S,
    DEFAULT_N_T,
    DEFAULT_S_MAX,
    WarpProfile,
    capacity_Cp,
    family_bumped,
    family_flat_exterior,
    family_schwarzschild,
    level_flow,
    masses,
    w_inequality_residual,
)

__all__ = ["ConfigError", "RunConfig", "main"]

DEFAULT_CONFIG = {
    "p_list": [1.5],
    "families": [{"tag": "schwarzschild", "params": {"m": 2.0}}],
    "grids": {
        "R_max": 1.0e6,
        "n_points": 4096,
        "s_max": DEFAULT_S_MAX,
        "n_s": DEFAULT_N_S,
        "n_t": DEFAULT_N_T,
    },
    "tolerances": {},
    "outputs": {"csv_dir": "masscap_out", "report_path": None},
}

_FAMILY_PARAMS = {
    "schwarzschild": ({"m"}, {"m"}),
    "bumped": ({"m0", "eps"}, {"m0", "eps", "s1", "s2"}),
    "flat": (set(), set()),
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
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
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
    if tag not in _FAMILY_PARAMS:
        raise ConfigError(
            f"unknown family tag {tag!r}; known: {sorted(_FAMILY_PARAMS)}"
        )
    required, allowed = _FAMILY_PARAMS[tag]
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
    p_clean = []
    for p in p_list:
        p = _require_number(p, "p")
        if not 1.0 < p < 2.0:
            raise ConfigError(f"p must lie in (1, 2), got {p}")
        p_clean.append(p)

    families = raw["families"]
    if not isinstance(families, list) or not families:
        raise ConfigError("families must be a non-empty list")
    fam_clean = tuple(_validate_family(entry) for entry in families)

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

    if not isinstance(raw["tolerances"], dict):
        raise ConfigError("tolerances must be an object")
    try:
        tol = Tolerances(**raw["tolerances"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad tolerances: {exc}") from exc

    outputs = raw["outputs"]
    csv_dir = Path(str(outputs["csv_dir"]))
    report_path = outputs["report_path"]
    report_path = (
        csv_dir / "report.json" if report_path is None else Path(str(report_path))
    )

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
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# masscap {__version__}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(value) for value in row])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(key): _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _write_report(path: Path, report: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    path.write_text(text + "\n")


def _slug(tag: str, params: dict) -> str:
    parts = [tag] + [f"{key}={params[key]:g}" for key in sorted(params)]
    return "-".join(parts)


def _case_order(cfg: RunConfig):
    cells = [
        (p, tag, params)
        for p in cfg.p_list
        for tag, params in cfg.families
    ]
    return sorted(cells, key=lambda c: (c[0], c[1], json.dumps(c[2], sort_keys=True)))


# ---------------------------------------------------------------------------
# shared per-run caches


class _Pipeline:
    """Lazily built models, coefficient triples and families for one run."""

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        self._models: dict[float, ModelGeometry] = {}
        self._triples: dict[float, tuple[CoefficientSolution, CoefficientSolution]] = {}
        self._warps: dict[str, WarpProfile] = {}

    def model(self, p: float) -> ModelGeometry:
        if p not in self._models:
            self._models[p] = model_profile(
                p, R_max=self.cfg.R_max, n=self.cfg.n_points, tol=self.cfg.tol
            )
        return self._models[p]

    def triples(self, p: float) -> tuple[CoefficientSolution, CoefficientSolution]:
        if p not in self._triples:
            model = self.model(p)
            self._triples[p] = (
                solve_decaying(model, tol=self.cfg.tol),
                solve_growing(model, tol=self.cfg.tol),
            )
        return self._triples[p]

    def family(self, tag: str, params: dict) -> WarpProfile:
        key = _slug(tag, params)
        if key not in self._warps:
            cfg = self.cfg
            if tag == "schwarzschild":
                warp = family_schwarzschild(params["m"], s_max=cfg.s_max, n=cfg.n_s)
            elif tag == "bumped":
                warp = family_bumped(
                    params["m0"],
                    params["eps"],
                    s1=params.get("s1", 2.0),
                    s2=params.get("s2", 6.0),
                    s_max=cfg.s_max,
                    n=cfg.n_s,
                )
            else:
                warp = family_flat_exterior(s_max=cfg.s_max, n=cfg.n_s)
            self._warps[key] = warp
        return self._warps[key]


# ---------------------------------------------------------------------------
# subcommands


def cmd_model(cfg: RunConfig) -> int:
    pipe = _Pipeline(cfg)
    const_rows = []
    for p in sorted(cfg.p_list):
        model = pipe.model(p)
        _write_csv(
            cfg.csv_dir / f"model-p={p!r}.csv",
            ["r", "u", "du", "t", "W", "dWdt"],
            zip(
                model.r_grid,
                model.u_curve.y,
                model.du_curve.y,
                model.t_of_r.y,
                model.Ws_curve.y,
                model.dWs_curve.y,
            ),
        )
        W0, _ = ws_boundary_data(model)
        const_rows.append(
            (p, model.flux_constant, model.Kp, model.c_fit, model.c_tilde, W0)
        )
        print(f"model p={p!r}: Kp={float(model.Kp)!r} W0={float(W0)!r}")
    _write_csv(
        cfg.csv_dir / "model-constants.csv",
        ["p", "flux_constant", "Kp", "c_fit", "c_tilde", "W0"],
        const_rows,
    )
    return 0


def cmd_coeffs(cfg: RunConfig) -> int:
    pipe = _Pipeline(cfg)
    const_rows = []
    for p in sorted(cfg.p_list):
        model = pipe.model(p)
        for sol in pipe.triples(p):
            _write_csv(
                cfg.csv_dir / f"coeffs-{sol.flavor}-p={p!r}.csv",
                ["r", "t", "f", "g", "h"],
                zip(
                    sol.g_curve.x,
                    sol.t_samples,
                    sol.f_curve.y,
                    sol.g_curve.y,
                    sol.h_curve.y,
                ),
            )
            f0, g0, h0 = sol.boundary_values()
            Q0, dev = model_constancy(sol, model)
            const_rows.append((p, sol.flavor, sol.c1, sol.q, f0, g0, h0, Q0, dev))
            print(f"coeffs p={p!r} {sol.flavor}: Q0={float(Q0)!r} max_dev={float(dev)!r}")
    _write_csv(
        cfg.csv_dir / "coeff-constants.csv",
        ["p", "flavor", "c1", "q", "f0", "g0", "h0", "Q0", "max_deviation"],
        const_rows,
    )
    return 0


def _check(name: str, value, tolerance, passed: bool, detail: str = "") -> dict:
    entry = {"name": name, "value": value, "tolerance": tolerance, "passed": bool(passed)}
    if detail:
        entry["detail"] = detail
    return entry


def _flat_case(pipe: _Pipeline, p: float, warp: WarpProfile) -> dict:
    tol = pipe.cfg.tol
    Cp = capacity_Cp(warp, p)
    _, adm = masses(warp)
    target = 4.0 * math.pi * ((3.0 - p) / (p - 1.0)) ** (p - 1.0)
    checks = [
        _check(
            "capacity_euclidean",
            Cp,
            tol.accept_rel * target,
            abs(Cp - target) <= tol.accept_rel * target,
        ),
        _check("adm_zero", adm, tol.accept_rel, abs(adm) <= tol.accept_rel),
    ]
    return {
        "p": p,
        "family": warp.family_tag,
        "params": {},
        "margin": None,
        "min_slope_Qstar": None,
        "min_slope_Qgrow": None,
        "equality": None,
        "checks": checks,
        "diagnostics": {"Cp": Cp, "adm": adm, "capacity_target": target},
    }


def _minimal_case(pipe: _Pipeline, p: float, tag: str, params: dict) -> dict:
    cfg = pipe.cfg
    tol = cfg.tol
    case = {
        "p": p,
        "family": tag,
        "params": params,
        "margin": None,
        "min_slope_Qstar": None,
        "min_slope_Qgrow": None,
        "equality": None,
        "checks": [],
        "diagnostics": {},
    }
    checks = case["checks"]

    model = pipe.model(p)
    dec, grow = pipe.triples(p)
    try:
        warp = pipe.family(tag, params)
    except (ValueError, RuntimeError) as exc:
        checks.append(_check("family_construction", None, None, False, str(exc)))
        return case
    try:
        flow = level_flow(warp, p, n_t=cfg.n_t)
    except (ValueError, RuntimeError) as exc:
        checks.append(_check("level_flow", None, None, False, str(exc)))
        return case
    try:
        report = case_report(flow, model, dec, grow, tol)
    except (ValueError, RuntimeError) as exc:
        checks.append(_check("hypotheses", None, None, False, str(exc)))
        return case

    diag = report.diagnostics
    case["margin"] = report.penrose_margin
    case["min_slope_Qstar"] = diag["min_slope_decaying"]
    case["min_slope_Qgrow"] = diag["min_slope_growing"]
    case["equality"] = report.equality_flag
    case["diagnostics"] = diag

    s = 3.0 - p
    vacuum = tag == "schwarzschild" or (tag == "bumped" and params["eps"] == 0.0)
    identity_scale = tol.accept_rel * 4.0 * math.pi * s**2
    res_curve, gap = w_inequality_residual(flow)
    res_min = float(res_curve.y.min())
    W0_model = diag["horizon_W_gap"] + flow.W0

    checks.append(
        _check(
            "monotone_decaying",
            diag["min_slope_decaying"],
            tol.slope_slack,
            diag["min_slope_decaying"] >= -tol.slope_slack,
        )
    )
    checks.append(
        _check(
            "monotone_growing",
            diag["min_slope_growing"],
            tol.slope_slack,
            diag["min_slope_growing"] >= -tol.slope_slack,
        )
    )
    checks.append(_check("w_identity_gap", gap, identity_scale, gap <= identity_scale))
    checks.append(
        _check(
            "w_residual_floor",
            res_min,
            tol.slope_slack,
            res_min >= -tol.slope_slack,
        )
    )
    if vacuum:
        res_max = float(np.max(np.abs(res_curve.y)))
        checks.append(
            _check(
                "w_residual_vacuum",
                res_max,
                identity_scale,
                res_max <= identity_scale,
            )
        )
    checks.append(
        _check(
            "horizon_gradient_bound",
            diag["horizon_W_gap"],
            tol.accept_rel * W0_model,
            diag["horizon_W_gap"] >= -tol.accept_rel * W0_model,
        )
    )
    margin = report.penrose_margin
    margin_scale = tol.accept_rel * max(flow.adm, 1.0)
    if vacuum:
        checks.append(
            _check("penrose_sharp", margin, margin_scale, abs(margin) <= margin_scale)
        )
    else:
        checks.append(_check("penrose_margin", margin, 0.0, margin > 0.0))
    f_limit = diag["mass_functional_limit"]
    f_target = diag["mass_functional_target"]
    if vacuum:
        passed = abs(f_limit - f_target) <= 10.0 * tol.accept_rel * max(f_target, 1.0)
        checks.append(
            _check("mass_limit", f_limit, 10.0 * tol.accept_rel * max(f_target, 1.0), passed)
        )
    else:
        checks.append(
            _check(
                "mass_limit",
                f_limit,
                tol.accept_rel,
                f_limit <= f_target + tol.accept_rel,
            )
        )
    checks.append(
        _check(
            "equality_flag",
            report.equality_flag,
            None,
            bool(report.equality_flag) == vacuum,
        )
    )

    slug = _slug(tag, params)
    _write_csv(
        cfg.csv_dir / f"warped-p={p!r}-{slug}.csv",
        ["s", "t", "phi", "u", "W", "dWdt", "H", "R", "hawking"],
        zip(
            flow.s_of_t.y,
            flow.t_grid,
            flow.phi.y,
            flow.u.y,
            flow.W.y,
            flow.dWdt.y,
            flow.H.y,
            flow.R.y,
            flow.hawking.y,
        ),
    )
    for sol in (dec, grow):
        q = evaluate_Q(flow, sol)
        _write_csv(
            cfg.csv_dir / f"q-{sol.flavor}-p={p!r}-{slug}.csv",
            ["t", "Q"],
            zip(q.t, q.values),
        )
    return case


def cmd_verify(cfg: RunConfig) -> int:
    pipe = _Pipeline(cfg)
    cases = []
    for p, tag, params in _case_order(cfg):
        warp_kind = "flat" if tag == "flat" else "minimal"
        if warp_kind == "flat":
            try:
                warp = pipe.family(tag, params)
                case = _flat_case(pipe, p, warp)
            except (ValueError, RuntimeError) as exc:
                case = {
                    "p": p,
                    "family": tag,
                    "params": params,
                    "margin": None,
                    "min_slope_Qstar": None,
                    "min_slope_Qgrow": None,
                    "equality": None,
                    "checks": [_check("family_construction", None, None, False, str(exc))],
                    "diagnostics": {},
                }
        else:
            case = _minimal_case(pipe, p, tag, params)
        cases.append(case)
        ok = all(check["passed"] for check in case["checks"])
        print(
            f"verify p={p!r} {_slug(tag, params)}: "
            f"{'pass' if ok else 'FAIL'} "
            f"({sum(c['passed'] for c in case['checks'])}/{len(case['checks'])} checks)"
        )

    model_diag = {
        repr(p): constant_diagnostics(pipe.model(p), *pipe.triples(p))
        for p in sorted(pipe._triples)
    }
    passed = all(check["passed"] for case in cases for check in case["checks"])
    report = {
        "version": __version__,
        "passed": passed,
        "cases": cases,
        "model_diagnostics": model_diag,
    }
    _write_report(cfg.report_path, report)
    print(f"report: {cfg.report_path} ({'pass' if passed else 'FAIL'})")
    return 0 if passed else 1


def cmd_sweep(cfg: RunConfig) -> int:
    pipe = _Pipeline(cfg)
    rows = []
    failed = False
    for p, tag, params in _case_order(cfg):
        base = [p, tag, json.dumps(params, sort_keys=True)]
        try:
            warp = pipe.family(tag, params)
            model = pipe.model(p)
            Cp = capacity_Cp(warp, p)
            _, adm = masses(warp)
            if not warp.minimal_boundary:
                rows.append(base + [Cp, model.Kp, adm, None, None, None, None, "ok"])
                continue
            dec, grow = pipe.triples(p)
            flow = level_flow(warp, p, n_t=cfg.n_t)
            report = case_report(flow, model, dec, grow, cfg.tol)
            diag = report.diagnostics
            rows.append(
                base
                + [
                    Cp,
                    model.Kp,
                    adm,
                    report.penrose_margin,
                    diag["min_slope_decaying"],
                    diag["min_slope_growing"],
                    report.equality_flag,
                    "ok",
                ]
            )
        except (ValueError, RuntimeError) as exc:
            failed = True
            message = " ".join(str(exc).split())
            rows.append(base + [None] * 7 + [f"error: {message}"])
    _write_csv(
        cfg.csv_dir / "sweep.csv",
        [
            "p",
            "tag",
            "params",
            "Cp",
            "Kp",
            "adm",
            "margin",
            "min_slope_dec",
            "min_slope_grow",
            "equality",
            "status",
        ],
        rows,
    )
    print(f"sweep: {len(rows)} rows -> {cfg.csv_dir / 'sweep.csv'}")
    return 1 if failed else 0


def cmd_suite(cfg: RunConfig) -> int:
    code = cmd_model(cfg)
    code = max(code, cmd_coeffs(cfg))
    code = max(code, cmd_sweep(cfg))
    return max(code, cmd_verify(cfg))


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
        "coeffs": "write coefficient-triple curves and fit constants",
        "verify": "run all certification checks and write the report",
        "sweep": "write one summary row per (p, family)",
        "suite": "model + coeffs + sweep + verify",
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
        return _COMMANDS[args.command](cfg)
    except OSError as exc:
        print(f"masscap: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

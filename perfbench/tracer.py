"""In-memory spans around masscap's public functions, put in place from outside.

`Tracer.install()` replaces each traced function by a wrapper, in every
masscap module namespace that holds it (attribute substitution); the
package source is never edited. `Tracer.uninstall()` puts the originals
back, so one process can run a workload untraced and then traced.

Two kinds of record:

- span: one `Span` record per call (name, start, end, parent, case id and
  attributes such as solver counts). The two `solve_ivp` call sites are
  spans too, so `nfev` and `steps` land on the layer that asked for them.
- leaf: functions called tens of thousands of times per solve
  (`ModelGeometry.level_data` and the scalar bump) only add their call
  count and busy time to the enclosing span, which keeps memory flat.

Self time of a span is its duration minus the durations of its child spans
and the busy time of its leaf calls (`self_times`). Everything runs in one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

# (module, attribute, group, kind). group is the per-layer metric prefix.
# kind: a span kind of `SPAN_CALLS` (plain span, or a span that also counts
# warnings, written rows and bytes, or solver nfev and steps); "leaf"; or
# "factory", whose returned function is wrapped as a leaf.
TARGETS = [
    ("masscap.schwarzschild", "model_profile", "schwarzschild.model_profile", "warnings"),
    ("masscap.schwarzschild", "ModelGeometry.level_data", "schwarzschild.level_data", "leaf"),
    ("masscap.coefficients", "solve_decaying", "coefficients.solve_decaying", "span"),
    ("masscap.coefficients", "solve_growing", "coefficients.solve_growing", "span"),
    ("masscap.numerics", "integrate_linear_system", "numerics.integrate_linear_system", "span"),
    ("masscap.numerics", "panel_integrals", "numerics.panel_integrals", "span"),
    ("masscap.numerics", "fit_power_tail", "numerics.fit_power_tail", "span"),
    ("masscap.numerics", "solve_ivp", "numerics.solve_ivp", "solver"),
    ("masscap.frobenius", "series_coefficients", "frobenius.series_coefficients", "span"),
    ("masscap.warped", "family_schwarzschild", "warped.family", "span"),
    ("masscap.warped", "family_bumped", "warped.family", "span"),
    ("masscap.warped", "family_flat_exterior", "warped.family", "span"),
    ("masscap.warped", "level_flow", "warped.level_flow", "span"),
    ("masscap.warped", "spline_bump", "warped.spline_bump", "factory"),
    ("masscap.warped", "radial_p_harmonic", "warped.radial_p_harmonic", "span"),
    ("masscap.warped", "capacity_Cp", "warped.capacity_Cp", "span"),
    ("masscap.warped", "masses", "warped.masses", "span"),
    ("masscap.warped", "solve_ivp", "warped.solve_ivp", "solver"),
    ("masscap.verify", "case_report", "verify.case_report", "span"),
    ("masscap.verify", "evaluate_Q", "verify.evaluate_Q", "span"),
    ("masscap.verify", "constant_diagnostics", "verify.constant_diagnostics", "span"),
    ("masscap.cli", "main", "cli.main", "span"),
    ("masscap.cli", "cmd_model", "cli.cmd_model", "span"),
    ("masscap.cli", "cmd_coeffs", "cli.cmd_coeffs", "span"),
    ("masscap.cli", "cmd_sweep", "cli.cmd_sweep", "span"),
    ("masscap.cli", "cmd_verify", "cli.cmd_verify", "span"),
    ("masscap.cli", "_write_csv", "cli.write_csv", "writer"),
    ("masscap.cli", "_write_report", "cli.write_report", "span"),
]

# The CLI's own orchestration; the writers are a sub-layer with their own spans.
CLI_SELF_GROUPS = ("cli.main", "cli.cmd_model", "cli.cmd_coeffs", "cli.cmd_sweep", "cli.cmd_verify")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    case: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    leaves: dict = field(default_factory=dict)  # group -> [calls, busy seconds]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for one traced pass; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.root_leaves: dict = {}
        self.case: str | None = None
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.case, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _leaf(self, group: str, busy: float) -> None:
        leaves = self._stack[-1].leaves if self._stack else self.root_leaves
        entry = leaves.setdefault(group, [0, 0.0])
        entry[0] += 1
        entry[1] += busy

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, group: str, call):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(group)
            try:
                return call(span, fn, args, kwargs)
            finally:
                tracer.close(span)

        return traced

    def _leaf_wrapper(self, fn, group: str):
        tracer = self

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leaf(group, time.perf_counter() - start)

        return traced

    def _factory_wrapper(self, fn, group: str):
        def traced(*args, **kwargs):
            return self._leaf_wrapper(fn(*args, **kwargs), group)

        return traced

    # -- attribute substitution ------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        make = {kind: functools.partial(self._span_wrapper, call=call) for kind, call in SPAN_CALLS.items()}
        make["leaf"] = self._leaf_wrapper
        make["factory"] = self._factory_wrapper
        for module_name, attr, group, kind in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:  # a method, wrapped on its class
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._set(owner, method, make[kind](owner.__dict__[method], group))
                continue
            original = getattr(module, attr)
            wrapper = make[kind](original, group)
            if kind == "solver":
                # Call sites of a shared scipy function: patch this module only.
                self._set(module, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "masscap" and not name.startswith("masscap."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: Path, extra: dict | None = None) -> None:
        payload = dict(extra or {})
        payload["root_leaves"] = self.root_leaves
        payload["spans"] = [asdict(span) for span in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


def _call(span: Span, fn, args, kwargs):
    return fn(*args, **kwargs)


def _call_counting_warnings(span: Span, fn, args, kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    span.attrs["warnings"] = len(caught)
    return result


def _call_writer(span: Span, fn, args, kwargs):
    path, header, rows = args
    counter = _Counter(rows)
    result = fn(path, header, counter, **kwargs)
    span.attrs["rows"] = counter.n
    span.attrs["bytes"] = Path(path).stat().st_size
    return result


def _call_solver(span: Span, fn, args, kwargs):
    result = fn(*args, **kwargs)
    span.attrs["nfev"] = int(result.nfev)
    span.attrs["steps"] = int(len(result.t) - 1)
    return result


# How a span of each kind calls the wrapped function and what it records.
SPAN_CALLS = {
    "span": _call,
    "warnings": _call_counting_warnings,
    "writer": _call_writer,
    "solver": _call_solver,
}


class _Counter:
    """Iterates rows for the CSV writer and counts them."""

    def __init__(self, rows) -> None:
        self._rows = iter(rows)
        self.n = 0

    def __iter__(self):
        for row in self._rows:
            self.n += 1
            yield row


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus child span durations and leaf busy time."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return {
        span.id: span.duration
        - child_time[span.id]
        - sum(busy for _, busy in span.leaves.values())
        for span in spans
    }


def per_layer(spans: list[Span], root_leaves: dict | None = None) -> dict[str, float]:
    """Aggregate spans into the benchmark's per-layer metric values.

    For every group: calls, busy_s and self_s; solver spans add their nfev
    and steps to the group of the span that called the solver; leaves add
    calls and busy_s; writers add bytes and rows; model_profile adds the
    number of warnings it raised.
    """
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    leaf_tables = [span.leaves for span in spans] + [root_leaves or {}]
    for span in spans:
        group = span.name
        out[f"{group}.calls"] += 1
        out[f"{group}.busy_s"] += span.duration
        out[f"{group}.self_s"] += selfs[span.id]
        for key, value in span.attrs.items():
            out[f"{group}.{key}"] += value
        if group.endswith(".solve_ivp") and span.parent is not None:
            owner = by_id[span.parent].name
            out[f"{owner}.nfev"] += span.attrs["nfev"]
            out[f"{owner}.steps"] += span.attrs["steps"]
        if group in CLI_SELF_GROUPS:
            out["cli.self_s"] += selfs[span.id]
    for leaves in leaf_tables:
        for group, (calls, busy) in leaves.items():
            out[f"{group}.calls"] += calls
            out[f"{group}.busy_s"] += busy
    return dict(out)

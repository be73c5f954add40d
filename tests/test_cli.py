"""End-to-end tests of the command-line interface.

main() is called in-process with argument lists; each invocation builds its
own pipeline, so these tests lean on small configurations to stay fast.
"""

import builtins
import csv
import gc
import hashlib
import json
import math
import multiprocessing
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

import masscap
from masscap import numerics
from masscap.cli import (
    _Pipeline,
    _cell,
    _lines,
    _texts,
    _write_csv,
    build_parser,
    main,
    make_config,
)
from masscap.verify import _nodes


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    """(header, rows) with the leading version comment stripped."""
    lines = path.read_text().splitlines()
    assert lines[0] == f"# masscap {masscap.__version__}"
    reader = csv.reader(lines[1:])
    header = next(reader)
    return header, list(reader)


class TestModelCommand:
    def test_writes_profile_and_constants(self, tmp_path):
        assert main(["model", "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "model-p=1.5.csv")
        assert header == ["r", "u", "du", "t", "W", "dWdt"]
        assert len(rows) == 4096
        header, rows = _read_csv(tmp_path / "model-constants.csv")
        assert header[:3] == ["p", "flux_constant", "Kp"]
        assert float(rows[0][1]) == pytest.approx(60.0, rel=1e-10)

    def test_values_round_trip_exactly(self, tmp_path, lab):
        # repr-formatted cells must parse back to the very same doubles.
        assert main(["model", "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "model-p=1.5.csv")
        u_read = np.array([float(row[1]) for row in rows])
        assert np.array_equal(u_read, lab.model(1.5).grid_data.u)

    def test_output_is_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["model", "--out", str(tmp_path / sub)]) == 0
        for name in ("model-p=1.5.csv", "model-constants.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_p_flag_selects_the_profile(self, tmp_path):
        assert main(["model", "--p", "1.8", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "model-p=1.8.csv").exists()
        assert not (tmp_path / "model-p=1.5.csv").exists()

    @pytest.mark.parametrize("command", ["model", "coeffs"])
    def test_pipeline_failure_exits_one(self, tmp_path, capsys, command):
        # The reference profile cannot be built at p = 1.03 on the default grid.
        assert main([command, "--p", "1.03", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("masscap: p = 1.03: ") and "largest admissible R_max" in err


class TestCoeffsCommand:
    def test_writes_both_flavors(self, tmp_path):
        assert main(["coeffs", "--out", str(tmp_path)]) == 0
        for flavor in ("decaying", "growing"):
            header, rows = _read_csv(tmp_path / f"coeffs-{flavor}-p=1.5.csv")
            assert header == ["r", "t", "f", "g", "h"]
            assert len(rows) == 4096
        header, rows = _read_csv(tmp_path / "coeff-constants.csv")
        assert [row[1] for row in rows] == ["decaying", "growing"]


class TestVerifyCommand:
    def test_passing_and_failing_cases_in_one_run(self, tmp_path):
        # The default Schwarzschild case passes; a negative-eps bump breaks
        # the curvature hypothesis and must fail its stage check, turning
        # the overall exit code to 1 without aborting the run.
        cfg = _write_config(
            tmp_path / "cfg.json",
            {
                "p_list": [1.5],
                "families": [
                    {"tag": "schwarzschild", "params": {"m": 2.0}},
                    {"tag": "bumped", "params": {"m0": 1.0, "eps": -0.05}},
                ],
            },
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1

        report = json.loads((out / "report.json").read_text())
        assert report["version"] == masscap.__version__
        assert report["passed"] is False
        # A case holds its checks and diagnostics once, for a finished and a
        # stopped case alike.
        for case in report["cases"]:
            assert set(case) == {"p", "family", "params", "checks", "diagnostics"}
        by_family = {case["family"]: case for case in report["cases"]}
        schw = by_family["schwarzschild"]
        # The README lists these keys; a key removed here must not return.
        assert set(schw["diagnostics"]) == {
            "Cp", "Kp", "adm", "capacity_radius",
            "min_slope_decaying", "min_slope_growing", "Q0_decaying", "Q0_growing",
            "growing_limit_bound_resolved", "growing_coverage", "horizon_W_gap",
            "flow_nfev", "flow_steps", "flow_max_error",
        }
        assert by_family["bumped"]["diagnostics"] == {}
        assert all(check["passed"] for check in schw["checks"])
        equality = next(c for c in schw["checks"] if c["name"] == "equality_flag")
        assert equality["value"] is True
        failed = [c for c in by_family["bumped"]["checks"] if not c["passed"]]
        assert failed and failed[0]["name"] == "hypotheses"
        assert "curvature" in failed[0]["detail"]

    def test_large_mass_needs_no_larger_domain(self, tmp_path):
        # Schwarzschild m = 50 on the default s_max = 5e3 passes every check.
        # The config once refused it (s_max >= 125 m) to protect a tail fit.
        cfg = _write_config(
            tmp_path / "cfg.json",
            {"p_list": [1.5], "families": [{"tag": "schwarzschild", "params": {"m": 50.0}}]},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        [case] = json.loads((out / "report.json").read_text())["cases"]
        assert [check["name"] for check in case["checks"]][4:6] == ["end_is_reference", "end_mass"]

    def test_mass_beyond_the_domain_is_a_family_failure(self, tmp_path):
        # m = 1e6 on s_max = 100 is refused by the family itself, by name.
        cfg = _write_config(
            tmp_path / "cfg.json",
            {
                "p_list": [1.5],
                "families": [{"tag": "schwarzschild", "params": {"m": 1.0e6}}],
                "grids": {"s_max": 100.0},
            },
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        [case] = json.loads((out / "report.json").read_text())["cases"]
        [check] = case["checks"]
        assert check["name"] == "family_construction" and not check["passed"]
        assert check["detail"] == "first integral of the vacuum equation violated"

    def test_reference_model_failure_is_a_failed_check(self, tmp_path):
        # At p = 1.03 the default R_max is refused; the run must still write
        # its report, with the failure as the case's only check.
        out = tmp_path / "out"
        assert main(["verify", "--p", "1.03", "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        [case] = report["cases"]
        [check] = case["checks"]
        assert check["name"] == "reference_model"
        assert check["passed"] is False
        assert "p = 1.03" in check["detail"] and "largest admissible R_max" in check["detail"]
        assert report["reference"] == {}

    def test_non_finite_reference_profile_is_a_failed_check(self, tmp_path, monkeypatch):
        # One NaN from the grid's betainc call must not reach a model:
        # model_profile refuses it naming p, and the case reports that at
        # stage reference_model.
        original = masscap.schwarzschild.betainc

        def nan_at_one_radius(a, b, x):
            values = original(a, b, x)
            if np.size(x) > 1:
                values[7] = np.nan
            return values

        monkeypatch.setattr(masscap.schwarzschild, "betainc", nan_at_one_radius)
        with pytest.raises(ValueError, match="p = 1.5: the reference profile is not finite"):
            masscap.model_profile(1.5)
        out = tmp_path / "out"
        assert main(["verify", "--out", str(out)]) == 1
        [case] = json.loads((out / "report.json").read_text())["cases"]
        [check] = case["checks"]
        assert check["name"] == "reference_model" and not check["passed"]
        assert check["detail"].startswith("p = 1.5: the reference profile is not finite")

    @pytest.fixture(scope="class")
    def vacuum_out(self, tmp_path_factory):
        """Output of the default verify run: Schwarzschild m = 2 at p = 1.5."""
        out = tmp_path_factory.mktemp("verify") / "out"
        assert main(["verify", "--out", str(out)]) == 0
        return out

    def test_vacuum_case_writes_curves_and_passes(self, vacuum_out, lab):
        header, rows = _read_csv(vacuum_out / "warped-p=1.5-schwarzschild-m=2.csv")
        assert header == ["s", "t", "phi", "u", "W", "dWdt", "H", "R", "hawking"]
        # The flow table holds the samples the gates read, not all n_t = 32768.
        assert len(rows) == len(_nodes(lab.flow(1.5, "schwarzschild", m=2.0))) == 4097
        for flavor in ("decaying", "growing"):
            header, _ = _read_csv(vacuum_out / f"q-{flavor}-p=1.5-schwarzschild-m=2.csv")
            assert header == ["t", "Q"]
        report = json.loads((vacuum_out / "report.json").read_text())
        assert report["passed"] is True
        assert list(report["reference"]) == ["1.5"]
        checks = report["reference"]["1.5"]["checks"]
        assert len(checks) == 5 and all(check["passed"] for check in checks)

    def test_flow_values_round_trip_exactly(self, vacuum_out, lab):
        # Every written double is, bit for bit, the flow's own at its node.
        header, rows = _read_csv(vacuum_out / "warped-p=1.5-schwarzschild-m=2.csv")
        flow = lab.flow(1.5, "schwarzschild", m=2.0)
        columns = dict(
            s=flow.s_of_t.y, t=flow.t_grid, phi=flow.phi.y, u=flow.u.y, W=flow.W.y,
            dWdt=flow.dWdt.y, H=flow.H.y, R=flow.R.y, hawking=flow.hawking.y,
        )
        assert header == list(columns)
        read = np.array([[float(value) for value in row] for row in rows])
        for j, name in enumerate(header):
            written = np.ascontiguousarray(read[:, j]).view(np.int64)
            assert np.array_equal(written, columns[name][_nodes(flow)].view(np.int64)), name

    def test_flow_table_and_q_tables_share_t(self, vacuum_out, lab):
        _, rows = _read_csv(vacuum_out / "warped-p=1.5-schwarzschild-m=2.csv")
        t = [row[1] for row in rows]
        assert float(t[-1]) == lab.flow(1.5, "schwarzschild", m=2.0).t_max
        for flavor in ("decaying", "growing"):
            _, q_rows = _read_csv(vacuum_out / f"q-{flavor}-p=1.5-schwarzschild-m=2.csv")
            assert len(q_rows) >= 2
            assert [row[0] for row in q_rows] == t[: len(q_rows)], flavor


class TestWriteCsv:
    # Edge doubles of repr: nan, infinities, signed zero, the least
    # subnormal, and exponent and plain forms.
    TABLE = np.array(
        [
            [math.nan, math.inf, -math.inf, -0.0],
            [5e-324, 1e16, 1e-5, 0.1],
            [2.0, -2.0, 0.0, 1.0 / 3.0],
        ]
    )

    def _reference(self, path, header, rows):
        """The cell-by-cell writer: csv.writer over _cell strings."""
        with open(path, "w", newline="") as fh:
            fh.write(f"# masscap {masscap.__version__}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(value) for value in row])

    def test_number_rows_match_the_cell_writer_byte_for_byte(self, tmp_path):
        header = ["a", "b", "c", "d"]
        self._reference(tmp_path / "cells.csv", header, self.TABLE.tolist())
        expected = (tmp_path / "cells.csv").read_bytes()
        a, *rest = self.TABLE.T
        shared = list(_texts(a))
        longer = list(_texts(np.append(a, [7.0, -8.5])))
        cases = {
            "columns": lambda: _lines(*map(_texts, self.TABLE.T)),
            # a column another table formatted, read twice
            "shared": lambda: _lines(shared, *map(_texts, rest)),
            "shared-again": lambda: _lines(shared, *map(_texts, rest)),
            # a longer column's texts, as the flow's t in a Q table: zip
            # stops at the shorter columns
            "prefix": lambda: _lines(longer, *map(_texts, rest)),
            # a one-shot iterator of lines, as a wrapper that counts rows passes
            "iter": lambda: (line for line in _lines(shared, *map(_texts, rest))),
        }
        for name, rows in cases.items():
            _write_csv(tmp_path / f"{name}.csv", header, rows())
            assert (tmp_path / f"{name}.csv").read_bytes() == expected, name

    def test_grid_texts_are_formatted_once_per_run(self):
        # Every model of a run has the same r grid: two exponents share one
        # list of r texts, and each p keeps its own t texts.
        pipe = _Pipeline(make_config(build_parser().parse_args(["model"])))
        r_texts, t_texts = pipe.grid_texts(1.2)
        assert pipe.grid_texts(1.5)[0] is r_texts
        assert pipe.grid_texts(1.2)[1] is t_texts
        for p in (1.2, 1.5):
            model = pipe.model(p)
            assert r_texts == list(_texts(model.r_grid))
            assert pipe.grid_texts(p)[1] == list(_texts(model.t_grid))


class TestSweepCommand:
    def test_flat_row_has_empty_flow_columns(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            {"p_list": [1.5], "families": [{"tag": "flat", "params": {}}]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _read_csv(out / "sweep.csv")
        assert header == [
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
        ]
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["tag"] == "flat"
        assert row["status"] == "ok"
        assert row["margin"] == ""
        assert float(row["adm"]) == pytest.approx(0.0, abs=1e-10)


    def test_failed_case_is_an_error_row(self, tmp_path):
        # A bump reaching toward the outer end of the grid is refused while
        # the family is built; the other case still gets its ok row.
        families = [
            {"tag": "schwarzschild", "params": {"m": 2.0}},
            {"tag": "bumped", "params": {"m0": 1.0, "eps": 0.1, "s1": 2.0, "s2": 4000.0}},
        ]
        cfg = _write_config(tmp_path / "cfg.json", {"p_list": [1.5], "families": families})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        header, rows = _read_csv(out / "sweep.csv")
        status = {row[1]: row[-1] for row in rows}
        assert status == {
            "schwarzschild": "ok",
            "bumped": "error: bump support must end well inside the grid",
        }
        [bumped] = [dict(zip(header, row)) for row in rows if row[1] == "bumped"]
        assert all(bumped[name] == "" for name in header[3:-1])


class TestSweepVerdict:
    """sweep's status and exit code are the verdict verify writes."""

    def test_sweep_names_the_checks_verify_fails(self, tmp_path):
        # accept_rel = 1e-12 is below what the vacuum case reaches.
        args = ["--p", "1.5", "--tol", "1e-12"]
        assert main(["verify", *args, "--out", str(tmp_path / "verify")]) == 1
        assert main(["sweep", *args, "--out", str(tmp_path / "sweep")]) == 1
        [case] = json.loads((tmp_path / "verify" / "report.json").read_text())["cases"]
        failed = [check["name"] for check in case["checks"] if not check["passed"]]
        assert failed
        header, [row] = _read_csv(tmp_path / "sweep" / "sweep.csv")
        assert row[header.index("status")] == "fail: " + " ".join(failed)

    def test_readme_config_sweeps_ok(self, tmp_path):
        families = [
            {"tag": "schwarzschild", "params": {"m": 2.0}},
            {"tag": "bumped", "params": {"m0": 1.0, "eps": 0.1, "s1": 2.0, "s2": 6.0}},
            {"tag": "flat", "params": {}},
        ]
        cfg = _write_config(
            tmp_path / "cfg.json", {"p_list": [1.2, 1.5, 1.8], "families": families}
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, rows = _read_csv(tmp_path / "out" / "sweep.csv")
        assert [row[-1] for row in rows] == ["ok"] * 9


_SUITE_FAMILIES = pytest.mark.parametrize(
    "families, reference",
    [
        (
            [{"tag": "schwarzschild", "params": {"m": 2.0}}, {"tag": "flat", "params": {}}],
            ["1.5"],
        ),
        ([{"tag": "flat", "params": {}}], []),
    ],
    ids=["schwarzschild-and-flat", "flat-only"],
)


class TestSuiteCommand:
    @_SUITE_FAMILIES
    def test_suite_equals_its_parts(self, tmp_path, families, reference):
        # With flat alone, coeffs builds triples that verify must not report:
        # the reference checks cover the exponents of minimal-boundary cases.
        cfg = _write_config(
            tmp_path / "cfg.json",
            {"p_list": [1.5], "families": families, "grids": {"n_s": 256, "n_t": 1024}},
        )
        suite, parts = tmp_path / "suite", tmp_path / "parts"
        suite_code = main(["suite", "--config", cfg, "--out", str(suite)])
        codes = [
            main([command, "--config", cfg, "--out", str(parts)])
            for command in ("model", "coeffs", "sweep", "verify")
        ]
        assert suite_code == max(codes)
        names = sorted(path.name for path in suite.iterdir())
        assert names == sorted(path.name for path in parts.iterdir())
        assert "report.json" in names and "sweep.csv" in names
        for name in names:
            assert (suite / name).read_bytes() == (parts / name).read_bytes(), name
        assert list(json.loads((suite / "report.json").read_text())["reference"]) == reference

    @_SUITE_FAMILIES
    def test_suite_equals_its_parts_on_one_worker(
        self, tmp_path, monkeypatch, families, reference
    ):
        # The reference exponents come from the build before the cases are
        # certified, on the in-process path as on the pool's.
        monkeypatch.setattr(masscap.cli.os, "cpu_count", lambda: 1)
        self.test_suite_equals_its_parts(tmp_path, families, reference)

    def test_no_column_is_formatted_twice(self, tmp_path, monkeypatch):
        # masscap.cli's repr, a module global that shadows the builtin, counts
        # the floats the run formats: one call per written float cell (and
        # per report key of the reference checks), except the cells of a
        # column another table wrote first. Those are the model grid r after
        # its first table, each p's t in its coeffs tables, and each flow's t
        # in its q tables.
        calls = []

        def counting(value):
            calls.append(value)
            return builtins.repr(value)

        monkeypatch.setattr(masscap.cli, "repr", counting, raising=False)
        monkeypatch.setattr(masscap.cli.os, "cpu_count", lambda: 1)
        cfg = _write_config(
            tmp_path / "cfg.json",
            {
                "p_list": [1.5, 1.8],
                "families": [{"tag": "schwarzschild", "params": {"m": 2.0}}],
                "grids": {"n_points": 256, "n_s": 256, "n_t": 1024},
            },
        )
        out = tmp_path / "out"
        assert main(["suite", "--config", cfg, "--out", str(out)]) == 0
        tables = {path.name: _read_csv(path) for path in out.glob("*.csv")}

        def column(name, label):
            header, rows = tables[name]
            return [row[header.index(label)] for row in rows]

        def is_float(cell):
            try:
                float(cell)
            except ValueError:
                return False
            return True

        cells = sum(is_float(cell) for _, rows in tables.values() for row in rows for cell in row)
        r = column("model-p=1.5.csv", "r")
        assert column("model-p=1.8.csv", "r") == r
        repeated = len(r)
        for p in ("1.5", "1.8"):
            t = column(f"model-p={p}.csv", "t")
            flow_t = column(f"warped-p={p}-schwarzschild-m=2.csv", "t")
            for flavor in ("decaying", "growing"):
                coeffs = f"coeffs-{flavor}-p={p}.csv"
                assert column(coeffs, "r") == r and column(coeffs, "t") == t
                q_t = column(f"q-{flavor}-p={p}-schwarzschild-m=2.csv", "t")
                assert q_t == flow_t[: len(q_t)]
                repeated += len(r) + len(t) + len(q_t)
        reference = json.loads((out / "report.json").read_text())["reference"]
        assert list(reference) == ["1.5", "1.8"]
        assert len(calls) == cells - repeated + len(reference)


class TestWorkerPool:
    """verify, sweep and suite certify their cases in forked workers."""

    README_FAMILIES = [
        {"tag": "schwarzschild", "params": {"m": 2.0}},
        {"tag": "bumped", "params": {"m0": 1.0, "eps": 0.1, "s1": 2.0, "s2": 6.0}},
        {"tag": "flat", "params": {}},
    ]

    def _run(self, monkeypatch, workers, args):
        monkeypatch.setattr(masscap.cli.os, "cpu_count", lambda: workers)
        return main(args)

    def test_pool_writes_the_bytes_of_a_serial_run(self, tmp_path, monkeypatch):
        # The README's exponents and families plus p = 1.03, whose reference
        # model the default R_max refuses: those cases stop at
        # reference_model, and model and coeffs exit 1. Coarse grids keep the
        # two runs fast and run the same code. Three workers whatever the
        # machine, then one.
        cfg = _write_config(
            tmp_path / "cfg.json",
            {
                "p_list": [1.2, 1.5, 1.8, 1.03],
                "families": self.README_FAMILIES,
                "grids": {"n_s": 256, "n_t": 1024},
            },
        )
        digests, codes = {}, {}
        for workers in (3, 1):
            out = tmp_path / f"out{workers}"
            codes[workers] = self._run(
                monkeypatch, workers, ["suite", "--config", cfg, "--out", str(out)]
            )
            digests[workers] = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in out.iterdir()
            }
        assert codes[3] == codes[1] == 1
        assert multiprocessing.active_children() == []
        assert digests[3] == digests[1]
        assert {"report.json", "sweep.csv"} <= set(digests[3])
        report = json.loads((tmp_path / "out3" / "report.json").read_text())
        refused = [case for case in report["cases"] if case["p"] == 1.03]
        assert [case["checks"][0]["name"] for case in refused] == ["reference_model"] * 3
        assert list(report["reference"]) == ["1.2", "1.5", "1.8"]

    @pytest.mark.parametrize("workers", [2, 1])
    def test_a_run_frees_its_pipeline_without_the_cyclic_collector(
        self, tmp_path, monkeypatch, workers
    ):
        # The pool holds the pipeline as its workers' initializer argument,
        # and with one worker each case's getter holds it. A pipeline that
        # kept either after the run would form a cycle, and the run's models
        # and triples would stay until a gc collection.
        cfg = _write_config(
            tmp_path / "cfg.json",
            {"p_list": [1.5], "families": self.README_FAMILIES, "grids": {"n_s": 256, "n_t": 1024}},
        )
        gc.collect()
        gc.disable()
        try:
            before = sum(isinstance(obj, _Pipeline) for obj in gc.get_objects())
            self._run(monkeypatch, workers, ["suite", "--config", cfg, "--out", str(tmp_path / "out")])
            after = sum(isinstance(obj, _Pipeline) for obj in gc.get_objects())
        finally:
            gc.enable()
        assert after == before

    def test_flow_code_is_compiled_before_the_cases(self, tmp_path, monkeypatch):
        # A flow's function (which its Rhs calls), its generated run and its
        # array twin, which evaluates the run's dense-output stages, depend
        # on its family only: the pipeline compiles them while it builds,
        # before it forks, so no case (and no worker) compiles them again.
        compilers = (numerics._dop_kernel, numerics._twin, numerics._rhs_function)
        for compile_ in compilers:
            compile_.cache_clear()
        compiled_before = []
        certify = masscap.cli._Pipeline._certify

        def spy(pipe, p, tag, params):
            warp = pipe.family(tag, params)
            if warp.minimal_boundary:
                misses = [f.cache_info().misses for f in compilers]
                text = warp.accel_fn.flow_rhs(p, 1.0, 1.0).text
                numerics._dop_kernel(text)
                numerics._rhs_function(numerics._twin(text))
                compiled_before.append([f.cache_info().misses for f in compilers] == misses)
            return certify(pipe, p, tag, params)

        monkeypatch.setattr(masscap.cli._Pipeline, "_certify", spy)
        cfg = _write_config(
            tmp_path / "cfg.json",
            {"p_list": [1.5, 1.8], "families": self.README_FAMILIES,
             "grids": {"n_s": 256, "n_t": 1024}},
        )
        out = tmp_path / "out"
        assert self._run(monkeypatch, 1, ["verify", "--config", cfg, "--out", str(out)]) == 0
        assert compiled_before == [True] * 4

    def test_a_failing_build_runs_once(self, tmp_path, monkeypatch):
        # The default R_max is refused at p = 1.03. The pipeline keeps that
        # exception, so the three cases cost one model_profile call (not one
        # in the build before the cases plus one per case), and each still
        # fails stage reference_model with the same message.
        calls = []
        original = masscap.cli.model_profile

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(masscap.cli, "model_profile", counting)
        cfg = _write_config(
            tmp_path / "cfg.json", {"p_list": [1.03], "families": self.README_FAMILIES}
        )
        out = tmp_path / "out"
        assert self._run(monkeypatch, 1, ["verify", "--config", cfg, "--out", str(out)]) == 1
        assert len(calls) == 1
        report = json.loads((out / "report.json").read_text())
        checks = [check for case in report["cases"] for check in case["checks"]]
        assert [check["name"] for check in checks] == ["reference_model"] * 3
        assert len({check["detail"] for check in checks}) == 1
        assert "largest admissible R_max" in checks[0]["detail"]

    def test_a_worker_oserror_ends_the_run_cleanly(self, tmp_path, monkeypatch, capfd):
        # The output directory is a regular file: the first write, a flow's
        # table, fails in a worker and must end the run as it does in-process.
        cfg = _write_config(
            tmp_path / "cfg.json",
            {
                "p_list": [1.5],
                "families": [
                    {"tag": "schwarzschild", "params": {"m": 2.0}},
                    {"tag": "bumped", "params": {"m0": 1.0, "eps": 0.1}},
                ],
                "grids": {"n_s": 256, "n_t": 1024},
            },
        )
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        outputs = {}
        for workers in (2, 1):
            code = self._run(monkeypatch, workers, ["verify", "--config", cfg, "--out", str(blocker)])
            outputs[workers] = (code, *capfd.readouterr())
        assert outputs[2] == outputs[1]
        code, out, err = outputs[2]
        assert code == 1 and out == ""
        assert err.startswith("masscap: ") and str(blocker) in err
        assert "Traceback" not in err

    def test_no_worker_outlives_a_failed_suite(self, tmp_path, monkeypatch, capfd):
        # suite starts the pool before it writes the model tables; the first
        # of those writes fails in the main process, with the workers busy.
        # Leaving the run must cancel the cases not started and wait for the
        # workers, and print what the in-process run prints.
        cfg = _write_config(
            tmp_path / "cfg.json",
            {"p_list": [1.5], "families": self.README_FAMILIES, "grids": {"n_s": 256, "n_t": 1024}},
        )
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        outputs = {}
        for workers in (2, 1):
            code = self._run(monkeypatch, workers, ["suite", "--config", cfg, "--out", str(blocker)])
            assert multiprocessing.active_children() == []
            outputs[workers] = (code, *capfd.readouterr())
        assert outputs[2] == outputs[1]
        code, out, err = outputs[2]
        assert code == 1 and out == ""
        assert err.startswith("masscap: ") and str(blocker) in err
        assert "Traceback" not in err


class TestReadmeSuiteBytes:
    """The README suite writes the bytes of the manifest, file for file.

    The manifest was written by a run of this suite; a change that moves
    bits on purpose writes it again and says why. Float results can differ
    in their last bits on another Python, numpy or scipy, so the test runs
    only on the versions the manifest records.
    """

    MANIFEST = Path(__file__).with_name("readme_suite_sha256.json")

    def test_suite_writes_the_manifest_bytes(self, tmp_path):
        manifest = json.loads(self.MANIFEST.read_text())
        versions = {"python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__}
        if versions != manifest["versions"]:
            pytest.skip(f"the manifest holds the bytes of {manifest['versions']}, not {versions}")
        cfg = _write_config(
            tmp_path / "cfg.json",
            {"p_list": [1.2, 1.5, 1.8], "families": TestWorkerPool.README_FAMILIES},
        )
        out = tmp_path / "out"
        assert main(["suite", "--config", cfg, "--out", str(out)]) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
        }
        assert digests == manifest["sha256"]


BAD_CONFIGS = [
    ({"p_list": []}, "p_list must be a non-empty list"),
    ({"p_list": [2.5]}, "p must lie in (1, 2)"),
    ({"families": [{"tag": "torus", "params": {}}]}, "unknown family tag 'torus'"),
    ({"families": [{"tag": "bumped", "params": {"m0": 1.0}}]}, "missing params ['eps']"),
    (
        {"families": [{"tag": "schwarzschild", "params": {"m": 2.0, "spin": 1.0}}]},
        "does not take params ['spin']",
    ),
    ({"grids": {"R_max": 10.0}}, "grids.R_max must be >= 1e4"),
    ({"grids": {"warp_factor": 2.0}}, "unknown grids keys ['warp_factor']"),
    ({"tolerances": {"accept_rel": -1.0}}, "strictly positive"),
    ({"mystery": True}, "unknown config key 'mystery'"),
    (
        {
            "families": [
                {"tag": "schwarzschild", "params": {"m": 2.0}},
                {"tag": "schwarzschild", "params": {"m": 2.0000001}},
            ]
        },
        "families share the output names",
    ),
    ({"tolerances": {"ode_rel": 1e-10}}, "unknown tolerances keys ['ode_rel']"),
    ({"tolerances": {"accept_rel": True}}, "strictly positive and finite"),
    ({"tolerances": {"accept_rel": float("inf")}}, "strictly positive and finite"),
    ({"tolerances": {"slope_slack": 1e-9}}, "unknown tolerances keys ['slope_slack']"),
    ({"grids": {"s_max": 50.0}}, "grids.s_max must be >= 100, got 50"),
    # A repeated p would certify its cases twice, and two workers would
    # write the same warped-* and q-* files at once.
    ({"p_list": [1.5, 1.2, 1.5]}, "p_list repeats the exponents [1.5]"),
    # JSON reads Infinity and NaN. As a grid bound or a family parameter they
    # make the solvers loop or fail late, so the config refuses them.
    ({"grids": {"s_max": math.inf}}, "grids.s_max must be a finite number, got inf"),
    (
        {"families": [{"tag": "bumped", "params": {"m0": 1.0, "eps": math.nan}}]},
        "bumped.eps must be a finite number, got nan",
    ),
    ({"grids": {"s_max": math.nan}}, "grids.s_max must be a finite number, got nan"),
    ({"grids": {"R_max": math.inf}}, "grids.R_max must be a finite number, got inf"),
    (
        {"families": [{"tag": "schwarzschild", "params": {"m": 0.0}}]},
        "schwarzschild.m must be positive",
    ),
    ({"grids": {"n_t": 8}}, "grids.n_t must be >= 16, got 8"),
    # An output path is a string: null or a list would name a directory
    # after its Python repr.
    ({"outputs": {"csv_dir": None}}, "outputs.csv_dir must be a non-empty string, got None"),
    (
        {"outputs": {"csv_dir": ["a", "b"]}},
        "outputs.csv_dir must be a non-empty string, got ['a', 'b']",
    ),
    ({"outputs": {"csv_dir": ""}}, "outputs.csv_dir must be a non-empty string, got ''"),
    (
        {"outputs": {"report_path": 3}},
        "outputs.report_path must be a non-empty string or null, got 3",
    ),
    (
        {"outputs": {"report_path": ["r.json"]}},
        "outputs.report_path must be a non-empty string or null, got ['r.json']",
    ),
]


class TestConfigErrors:
    @pytest.mark.parametrize(
        "payload, message", BAD_CONFIGS, ids=[f"payload{i}" for i in range(len(BAD_CONFIGS))]
    )
    def test_bad_configs_exit_two(self, tmp_path, monkeypatch, payload, message, capsys):
        # No --out, which would replace the config's outputs.csv_dir; the
        # default output directory is relative, so it would land in tmp_path.
        cfg = _write_config(tmp_path / "cfg.json", payload)
        monkeypatch.chdir(tmp_path)
        assert main(["model", "--config", cfg]) == 2
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]
        err = capsys.readouterr().err
        assert err.startswith("masscap:")
        assert message in err

    def test_invalid_json_exits_two(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert main(["model", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2

    def test_missing_config_file_exits_two(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["model", "--config", missing, "--out", str(tmp_path / "out")]) == 2

    def test_p_flag_out_of_range_exits_two(self, tmp_path):
        assert main(["model", "--p", "3.0", "--out", str(tmp_path)]) == 2

    def test_infinite_tol_flag_exits_two(self, tmp_path, capsys):
        assert main(["model", "--tol", "inf", "--out", str(tmp_path)]) == 2
        assert "strictly positive and finite" in capsys.readouterr().err


def test_tolerances_block_sets_accept_rel(tmp_path):
    # The config block and --tol are one setting: both give the same gates.
    cfg = _write_config(tmp_path / "cfg.json", {"tolerances": {"accept_rel": 1e-7}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "block")]) == 0
    assert main(["verify", "--tol", "1e-7", "--out", str(tmp_path / "flag")]) == 0
    tolerances = {}
    for name in ("block", "flag"):
        [case] = json.loads((tmp_path / name / "report.json").read_text())["cases"]
        tolerances[name] = {check["name"]: check["tolerance"] for check in case["checks"]}
    assert tolerances["block"] == tolerances["flag"]
    assert tolerances["block"]["monotone_decaying"] == 1e-8


def test_tol_flag_accepts_tight_accept_rel():
    cfg = make_config(build_parser().parse_args(["verify", "--tol", "1e-11"]))
    assert cfg.tol.accept_rel == 1e-11


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert masscap.__version__ in capsys.readouterr().out


def test_help_names_what_the_subcommands_do():
    # The triples have no fitted constants.
    text = " ".join(build_parser().format_help().split())
    assert "suite model + coeffs + verify + sweep" in text
    assert "coeffs write coefficient-triple curves and closed-form constants" in text
    assert "fit constants" not in text

"""Command-line tests: config merging, per-stage artifacts, partial reruns
that pick up earlier outputs, and exit codes on failure paths.

Everything drives ``cli.main`` in process against the small panel fixture,
so stdout, stderr, and the files left in the output directory are all
observable without subprocesses.
"""

import csv
import json
from pathlib import Path

import pytest

from leadalloc import allocate, cluster, normalize, panel
from leadalloc.cli import COMMANDS, build_config, build_parser, main
from leadalloc.errors import ConfigError


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestConfigMerging:
    def parse(self, *argv):
        return build_parser().parse_args(list(argv))

    def test_flags_only(self, fixture_path, tmp_path):
        args = self.parse(
            "optimize", "--input", str(fixture_path), "--out", str(tmp_path), "--year", "2020"
        )
        config = build_config(args)
        assert config.input_path == fixture_path
        assert config.target_year == 2020
        assert config.window == allocate.DEFAULT_WINDOW
        assert config.k == 5
        assert config.constraints.population_cap is True

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "with_a_bom"])
    def test_file_only(self, fixture_path, tmp_path, bom):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            bom
            + json.dumps(
                {
                    "input": str(fixture_path),
                    "out": str(tmp_path / "artifacts"),
                    "year": 2020,
                    "window": 2,
                    "p1_range": [0, 2, 0.5],
                    "p2_range": "0:2:0.5",
                    "floor": 0.1,
                    "population_cap": False,
                    "total_tests": 5000,
                    "emit_trace": True,
                    "k": 3,
                    "rate_window": 1,
                    "forecast_window": 4,
                }
            )
        )
        config = build_config(self.parse("optimize", "--config", str(cfg)))
        assert config.target_year == 2020
        assert config.window == 2
        assert config.grid.p1_values() == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert config.grid.p2_values() == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert config.constraints.floor_fraction == 0.1
        assert config.constraints.population_cap is False
        assert config.total_tests_override == 5000
        assert config.emit_trace is True
        assert config.k == 3
        assert config.rate_window == 1
        assert config.forecast_window == 4

    def test_flags_beat_file(self, fixture_path, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps({"input": "ignored.csv", "out": "ignored", "year": 2015, "window": 5})
        )
        args = self.parse(
            "optimize",
            "--config",
            str(cfg),
            "--input",
            str(fixture_path),
            "--out",
            str(tmp_path),
            "--year",
            "2021",
        )
        config = build_config(args)
        assert config.input_path == fixture_path
        assert config.target_year == 2021
        assert config.window == 5

    def test_missing_input_fails(self, tmp_path, capsys):
        rc = run_cli("optimize", "--out", str(tmp_path))
        assert rc == 2
        assert "error at stage config" in capsys.readouterr().err

    def test_unknown_config_key(self, fixture_path, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input": str(fixture_path), "out": str(tmp_path), "yera": 1}))
        rc = run_cli("optimize", "--config", str(cfg))
        assert rc == 2
        assert "yera" in capsys.readouterr().err

    def test_config_file_not_in_utf8(self, fixture_path, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes('{"out": "B\xe9dford"}'.encode("cp1252"))
        rc = run_cli("ingest", "--config", str(cfg), "--input", str(fixture_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error at stage config: config file {cfg} is not UTF-8 text (byte 0xe9)")

    @pytest.mark.parametrize("below", [False, True], ids=["the_file", "a_path_below_it"])
    def test_out_naming_a_file(self, fixture_path, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "artifacts" if below else taken
        rc = run_cli("run", "--input", str(fixture_path), "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error at stage config: out must name a directory, but {taken} is not one")
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"

    def test_bad_range_syntax(self, fixture_path, tmp_path, capsys):
        rc = run_cli(
            "optimize",
            "--input",
            str(fixture_path),
            "--out",
            str(tmp_path),
            "--p1-range",
            "0:1",
        )
        assert rc == 2
        assert "lo:hi:step" in capsys.readouterr().err

    def test_conflicting_steps(self, fixture_path, tmp_path, capsys):
        rc = run_cli(
            "optimize",
            "--input",
            str(fixture_path),
            "--out",
            str(tmp_path),
            "--p1-range",
            "0:1:0.5",
            "--p2-range",
            "0:1:0.25",
        )
        assert rc == 2
        assert "share one step" in capsys.readouterr().err

    def test_boolean_where_number_expected(self, fixture_path, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps({"input": str(fixture_path), "out": str(tmp_path), "window": True})
        )
        rc = run_cli("optimize", "--config", str(cfg))
        assert rc == 2
        assert "window" in capsys.readouterr().err

    def test_rate_window_zero_rejected(self, fixture_path, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps({"input": str(fixture_path), "out": str(tmp_path), "rate_window": 0})
        )
        rc = run_cli("optimize", "--config", str(cfg))
        assert rc == 2
        assert "rate_window must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "plan.csv").exists()

    def test_fractional_integer_rejected(self, fixture_path, tmp_path, capsys):
        for key, value in (("k", 2.7), ("year", 2020.5)):
            cfg = tmp_path / "run.json"
            cfg.write_text(
                json.dumps({"input": str(fixture_path), "out": str(tmp_path), key: value})
            )
            rc = run_cli("cluster", "--config", str(cfg))
            assert rc == 2
            assert f"{key} must be an integer, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "clusters.csv").exists()

    def test_whole_float_accepted_as_integer(self, fixture_path, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input": str(fixture_path), "out": str(tmp_path), "k": 3.0}))
        assert build_config(self.parse("cluster", "--config", str(cfg))).k == 3

    def test_window_and_k_bounds(self, fixture_path, tmp_path):
        base = ("optimize", "--input", str(fixture_path), "--out", str(tmp_path))
        assert run_cli(*base, "--window", "0") == 2
        assert run_cli(*base, "--k", "1") == 2
        assert run_cli(*base, "--total-tests", "0") == 2


class TestStageArtifacts:
    def test_ingest(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        rc = run_cli("ingest", "--input", str(fixture_path), "--out", str(out))
        assert rc == 0
        assert "ingested 6 neighborhoods x 12 years" in capsys.readouterr().out
        report = read_json(out / "validation.json")
        assert report["violations"] == []
        reparsed = panel.parse_panel(out / "panel.csv")
        assert reparsed.records == panel.parse_panel(fixture_path).records

    def test_ingest_counts_rejected_rows(self, fixture_path, tmp_path, capsys):
        broken = tmp_path / "broken.csv"
        lines = fixture_path.read_text().splitlines()
        lines.append("901,Edgewater,Queens,2021,-5,1,0,0,300")
        broken.write_text("\n".join(lines) + "\n")
        rc = run_cli("ingest", "--input", str(broken), "--out", str(tmp_path / "o"))
        assert rc == 0
        assert "1 rejected rows" in capsys.readouterr().out

    def test_normalize(self, fixture_path, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("normalize", "--input", str(fixture_path), "--out", str(out)) == 0
        norm = normalize.read_normalized(out / "normalized.csv")
        assert len(norm.values) == 72
        for year in norm.years:
            year_values = [v for (_, y), v in norm.values.items() if y == year]
            assert abs(sum(year_values) / len(year_values) - 1.0) <= 1e-9

    def test_cluster(self, fixture_path, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("cluster", "--input", str(fixture_path), "--out", str(out)) == 0
        assignment = cluster.read_assignment(out / "clusters.csv", out / "clusters.json")
        assert assignment.labels[101] == "High"
        assert assignment.labels[102] == "Low"
        assert assignment.labels[106] == "Average"
        assert assignment.labels[104] == "Rising"
        assert assignment.labels[105] == "Declining"

    def test_optimize(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        rc = run_cli("optimize", "--input", str(fixture_path), "--out", str(out))
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "p1=-0.9" in stdout and "p2=9.8" in stdout
        doc = read_json(out / "plan.json")
        assert (doc["p1"], doc["p2"]) == (-0.9, 9.8)
        assert doc["total_tests"] == 12480
        assert doc["target_year"] == 2021
        assert not (out / "trace.csv").exists()
        with open(out / "plan.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["geo_id"] for row in rows] == ["101", "102", "103", "104", "105", "106"]
        assert sum(int(row["v2_tests"]) for row in rows) == 12480

    def test_optimize_emit_trace(self, fixture_path, tmp_path):
        out = tmp_path / "artifacts"
        rc = run_cli(
            "optimize",
            "--input",
            str(fixture_path),
            "--out",
            str(out),
            "--emit-trace",
            "--p1-range=-1:1:0.5",
            "--p2-range=-1:1:0.5",
        )
        assert rc == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == 26
        assert lines[0] == "p1,p2,delta_cases,feasible,reason"

    def test_run_without_trace_removes_an_old_trace(self, fixture_path, tmp_path):
        """A trace.csv left by an earlier run would contradict the new plan."""
        out = tmp_path / "artifacts"
        args = ("run", "--input", str(fixture_path), "--out", str(out))
        assert run_cli(*args, "--emit-trace", "--floor", "0.9") == 0
        assert (out / "trace.csv").exists()
        assert run_cli(*args) == 0
        doc = read_json(out / "plan.json")
        assert (doc["p1"], doc["p2"]) == (-0.9, 9.8)
        assert not (out / "trace.csv").exists()

    def test_optimize_total_tests_override(self, fixture_path, tmp_path):
        out = tmp_path / "artifacts"
        rc = run_cli(
            "optimize",
            "--input",
            str(fixture_path),
            "--out",
            str(out),
            "--total-tests",
            "1000",
            "--p1-range",
            "0:1:0.5",
            "--p2-range",
            "0:1:0.5",
        )
        assert rc == 0
        plan = allocate.read_plan(out / "plan.csv", out / "plan.json")
        assert plan.total_tests == 1000
        assert int(plan.v2_tests.sum()) == 1000

    def test_evaluate_from_scratch(self, fixture_path, tmp_path):
        out = tmp_path / "artifacts"
        rc = run_cli(
            "evaluate",
            "--input",
            str(fixture_path),
            "--out",
            str(out),
            "--p1-range=-1:1:0.5",
            "--p2-range=-1:1:0.5",
        )
        assert rc == 0
        for name in (
            "plan.csv",
            "plan.json",
            "clusters.csv",
            "clusters.json",
            "evaluation.json",
            "evaluation.txt",
        ):
            assert (out / name).exists()
        doc = read_json(out / "evaluation.json")
        assert set(doc["cluster_cases"]) == {"High", "Low", "Average", "Rising", "Declining"}

    def test_run_writes_everything(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        rc = run_cli("run", "--input", str(fixture_path), "--out", str(out), "--emit-trace")
        assert rc == 0
        assert "pipeline complete" in capsys.readouterr().out
        for name in (
            "validation.json",
            "normalized.csv",
            "clusters.csv",
            "clusters.json",
            "plan.csv",
            "plan.json",
            "trace.csv",
            "evaluation.json",
            "evaluation.txt",
        ):
            assert (out / name).exists()
        doc = read_json(out / "evaluation.json")
        assert (doc["p1"], doc["p2"]) == (-0.9, 9.8)
        assert doc["cases_v1_rounded"] == 309
        assert doc["cases_v2_rounded"] == 414
        assert doc["ztest"]["z"] > 0
        assert doc["ztest"]["p_value"] < 0.05


class TestPartialReruns:
    def test_cluster_reads_existing_normalized(self, fixture_path, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("normalize", "--input", str(fixture_path), "--out", str(out)) == 0

        swapped = {101: 102, 102: 101}
        path = out / "normalized.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            geo = int(row["geo_id"])
            row["geo_id"] = str(swapped.get(geo, geo))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["geo_id", "year", "normalized_rate"])
            writer.writeheader()
            writer.writerows(rows)

        assert run_cli("cluster", "--input", str(fixture_path), "--out", str(out)) == 0
        assignment = cluster.read_assignment(out / "clusters.csv", out / "clusters.json")
        assert assignment.labels[102] == "High"
        assert assignment.labels[101] == "Low"

    def test_evaluate_reads_existing_plan(self, fixture_path, tmp_path):
        out = tmp_path / "artifacts"
        out.mkdir()
        data = panel.parse_panel(fixture_path)
        shares = allocate.compute_shares(data, 2021, 3)
        rates = allocate.case_rates(data, 2021, 3)
        plan = allocate.build_plan(shares, rates, 12480, 1.0, 0.0)
        allocate.write_plan(plan, out / "plan.csv", out / "plan.json")
        plan_bytes = (out / "plan.json").read_bytes()

        assert run_cli("evaluate", "--input", str(fixture_path), "--out", str(out)) == 0
        doc = read_json(out / "evaluation.json")
        assert (doc["p1"], doc["p2"]) == (1.0, 0.0)
        assert doc["delta_cases"] == 0.0
        assert (out / "plan.json").read_bytes() == plan_bytes

    def test_recluster_keeps_a_year_with_no_defined_cell(self, fixture_path, tmp_path):
        def untested_2016(row):
            if row["year"] == "2016":
                row.update(tests="0", cases_5plus="0", cases_10plus="0", cases_15plus="0")
            return row

        source = write_fixture_variant(fixture_path, tmp_path / "zero2016.csv", untested_2016)
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(source), "--out", str(out)) == 0
        written = {name: (out / name).read_bytes() for name in ("clusters.csv", "clusters.json")}
        for name in written:
            (out / name).unlink()
        assert run_cli("cluster", "--input", str(source), "--out", str(out)) == 0
        assert {name: (out / name).read_bytes() for name in written} == written


class TestFailureExits:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = run_cli("ingest", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path))
        assert rc == 1
        assert "error at stage ingest" in capsys.readouterr().err

    def test_empty_input_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = run_cli("ingest", "--input", str(empty), "--out", str(tmp_path))
        assert rc == 1
        assert "error at stage ingest" in capsys.readouterr().err

    def test_window_longer_than_panel(self, fixture_path, tmp_path, capsys):
        rc = run_cli(
            "optimize", "--input", str(fixture_path), "--out", str(tmp_path), "--window", "50"
        )
        assert rc == 2
        assert "error at stage optimize" in capsys.readouterr().err

    def test_evaluate_rejects_plan_of_another_panel(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        other = tmp_path / "city42.csv"
        with open(other, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["geo_id", "geo_name", "borough", "year", "tests", "cases_5plus",
                 "cases_10plus", "cases_15plus", "child_population"]
            )
            for geo in range(1, 43):
                for year in range(2010, 2022):
                    writer.writerow([geo, f"Area {geo}", "Riverside", year, 1000 + geo, 50, 20, 5, 4000])
        capsys.readouterr()
        rc = run_cli("evaluate", "--input", str(other), "--out", str(out))
        assert rc == 1
        captured = capsys.readouterr()
        assert "error at stage evaluate" in captured.err
        assert "case difference" not in captured.out

    def test_evaluate_rejects_plan_of_same_size_panel(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        with open(fixture_path, newline="") as fh:
            reader = csv.DictReader(fh)
            fieldnames = reader.fieldnames
            rows = list(reader)
        for row in rows:
            row["geo_id"] = str(int(row["geo_id"]) + 800)
        other = tmp_path / "shifted.csv"
        with open(other, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        rc = run_cli("evaluate", "--input", str(other), "--out", str(out))
        assert rc == 1
        captured = capsys.readouterr()
        assert "error at stage evaluate" in captured.err
        assert "case difference" not in captured.out

    def test_no_feasible_point(self, fixture_path, tmp_path, capsys):
        rc = run_cli(
            "optimize",
            "--input",
            str(fixture_path),
            "--out",
            str(tmp_path),
            "--p1-range=-2:-1:0.5",
            "--p2-range=-2:-1:0.5",
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "error at stage optimize" in err
        assert "on the 3x3 lattice: 9 negative score" in err

    # every artifact a command writes: the command, and the stage that writes it
    WRITTEN = {
        "validation.json": ("run", "ingest"),
        "normalized.csv": ("run", "normalize"),
        "clusters.csv": ("run", "cluster"),
        "clusters.json": ("run", "cluster"),
        "plan.csv": ("run", "optimize"),
        "plan.json": ("run", "optimize"),
        "trace.csv": ("run", "optimize"),
        "evaluation.json": ("run", "evaluate"),
        "evaluation.txt": ("run", "evaluate"),
        "panel.csv": ("ingest", "ingest"),
    }

    @pytest.mark.parametrize("name", WRITTEN)
    def test_artifact_name_taken_by_a_directory(self, fixture_path, tmp_path, capsys, name):
        out = tmp_path / "artifacts"
        (out / name).mkdir(parents=True)
        command, stage = self.WRITTEN[name]
        rc = run_cli(command, "--input", str(fixture_path), "--out", str(out), "--emit-trace")
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error at stage {stage}: cannot write {out / name}" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
    def test_write_error_that_names_no_file(self, fixture_path, tmp_path, capsys):
        """A write to a full device fails on flush, with no file name on the OSError."""
        out = tmp_path / "artifacts"
        out.mkdir()
        (out / "normalized.csv").symlink_to("/dev/full")
        rc = run_cli("run", "--input", str(fixture_path), "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error at stage normalize: cannot write into {out}: No space left on device")
        assert "Traceback" not in err


def write_fixture_variant(fixture_path, path, edit):
    """Copy the fixture CSV to ``path``, passing each row dict through ``edit``
    (a row it returns None for is dropped)."""
    with open(fixture_path, newline="") as fh:
        reader = csv.DictReader(fh)
        fieldnames = reader.fieldnames
        rows = [row for row in map(edit, reader) if row is not None]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return path


def shift_geo(row):
    row["geo_id"] = str(int(row["geo_id"]) + 800)
    return row


class TestReusedArtifacts:
    """An earlier stage's file made from another panel, or one that does not
    parse, ends the run with exit 1 and a message, not a report or a traceback."""

    def assert_data_error(self, rc, capsys, stage, *names):
        assert rc == 1
        captured = capsys.readouterr()
        assert f"error at stage {stage}" in captured.err
        assert "Traceback" not in captured.err
        for name in names:
            assert name in captured.err
        assert "clustered into" not in captured.out
        assert "case difference" not in captured.out

    # each reusable file: the command that reuses it, and the stage that reads it
    REUSED = {
        "normalized.csv": ("cluster", "normalize"),
        "clusters.csv": ("evaluate", "cluster"),
        "clusters.json": ("evaluate", "cluster"),
        "plan.csv": ("evaluate", "evaluate"),
        "plan.json": ("evaluate", "evaluate"),
    }

    @pytest.mark.parametrize(
        "name, damage",
        [(name, "directory") for name in REUSED]
        + [(name, "long_field") for name in REUSED if name.endswith(".csv")]
        + [(name, "not_utf8") for name in REUSED]
        + [(name, "no_geo_id_column") for name in REUSED if name.endswith(".csv")],
    )
    def test_file_that_cannot_be_read(self, fixture_path, tmp_path, capsys, name, damage):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        path = out / name
        said = []
        if damage == "directory":
            path.unlink()
            path.mkdir()
        elif damage == "long_field":  # a field past csv's size limit of 131,072 characters
            with open(path, "a") as fh:
                fh.write("x" * 140_001 + "\n")
        elif damage == "not_utf8":  # an é saved as cp1252
            with open(path, "ab") as fh:
                fh.write(b"\xe9\n")
            said = ["is not UTF-8 text (byte 0xe9)"]
        else:
            path.write_text(path.read_text().replace("geo_id", "geo", 1))
            said = ["has no column 'geo_id'"]
        capsys.readouterr()
        command, stage = self.REUSED[name]
        rc = run_cli(command, "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, stage, str(path), "delete it to recompute", *said)

    # a hand edit that puts a non-integer in an integer field, and the file it edits
    NOT_INTEGERS = {
        "target_year_fraction": ("plan.json", lambda doc: doc.update(target_year=2020.5)),
        "target_year_text": ("plan.json", lambda doc: doc.update(target_year=str(doc["target_year"]))),
        "total_tests_float": ("plan.json", lambda doc: doc.update(total_tests=float(doc["total_tests"]))),
        "n_iter_bool": ("clusters.json", lambda doc: doc.update(n_iter=True)),
        "medoid_float": ("clusters.json", lambda doc: doc["medoids"].update(High=float(doc["medoids"]["High"]))),
    }

    @pytest.mark.parametrize("edit", NOT_INTEGERS)
    def test_integer_field_that_is_not_a_json_integer(self, fixture_path, tmp_path, capsys, edit):
        """int() would read 2020.5 as 2020, and so score a 2021 plan with 2020 rates."""
        out = tmp_path / "artifacts"
        argv = ["--input", str(fixture_path), "--out", str(out)]
        assert run_cli("run", *argv) == 0
        name, change = self.NOT_INTEGERS[edit]
        doc = read_json(out / name)
        change(doc)
        (out / name).write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run_cli("evaluate", *argv)
        stage = "evaluate" if name == "plan.json" else "cluster"
        self.assert_data_error(rc, capsys, stage, str(out / name), "must be an integer")

    def test_cluster_rejects_normalized_of_another_panel(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        other = write_fixture_variant(fixture_path, tmp_path / "shifted.csv", shift_geo)
        capsys.readouterr()
        rc = run_cli("cluster", "--input", str(other), "--out", str(out))
        self.assert_data_error(rc, capsys, "normalize", "normalized.csv")

    def test_evaluate_rejects_clusters_of_another_panel(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        (out / "plan.csv").unlink()
        (out / "plan.json").unlink()
        other = write_fixture_variant(
            fixture_path, tmp_path / "five.csv", lambda row: None if row["geo_id"] == "106" else row
        )
        capsys.readouterr()
        rc = run_cli("evaluate", "--input", str(other), "--out", str(out))
        self.assert_data_error(rc, capsys, "cluster", "clusters.csv")

    def test_plan_json_without_a_key(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        doc = read_json(out / "plan.json")
        del doc["p1"]
        (out / "plan.json").write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run_cli("evaluate", "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, "evaluate", "plan.json")

    def test_normalized_rate_not_a_number(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("normalize", "--input", str(fixture_path), "--out", str(out)) == 0
        path = out / "normalized.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:-1] + ["zz"])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = run_cli("cluster", "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, "normalize", "normalized.csv")

    def test_clusters_json_without_a_key_or_with_a_list(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        written = read_json(out / "clusters.json")
        for medoids in (None, list(written["medoids"].values())):
            doc = dict(written)
            if medoids is None:
                del doc["medoids"]
            else:
                doc["medoids"] = medoids
            (out / "clusters.json").write_text(json.dumps(doc))
            capsys.readouterr()
            rc = run_cli("evaluate", "--input", str(fixture_path), "--out", str(out))
            self.assert_data_error(rc, capsys, "cluster", "clusters.json")

    def test_normalized_rate_not_finite(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("normalize", "--input", str(fixture_path), "--out", str(out)) == 0
        path = out / "normalized.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:-1] + ["nan"])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = run_cli("cluster", "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, "normalize", "normalized.csv")
        assert not (out / "clusters.json").exists()

    def test_plan_number_not_finite(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        written = read_json(out / "plan.json")
        for key in ("projected_cases_v2", "total_tests"):
            (out / "plan.json").write_text(json.dumps(dict(written, **{key: float("inf")})))
            capsys.readouterr()
            rc = run_cli("evaluate", "--input", str(fixture_path), "--out", str(out))
            self.assert_data_error(rc, capsys, "evaluate", "plan.json")

    def test_clusters_total_cost_not_finite(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        doc = dict(read_json(out / "clusters.json"), total_cost=float("nan"))
        (out / "clusters.json").write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run_cli("evaluate", "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, "cluster", "clusters.json")

    def test_plan_of_no_tests(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        doc = dict(read_json(out / "plan.json"), total_tests=0)
        (out / "plan.json").write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run_cli("evaluate", "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, "evaluate", "0 tests")

    @pytest.mark.parametrize(
        "projected", [lambda total: -5.0, lambda total: total + 1.0], ids=["below_0", "above_T"]
    )
    def test_projected_cases_outside_the_budget(self, fixture_path, tmp_path, capsys, projected):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        written = read_json(out / "plan.json")
        value = projected(written["total_tests"])
        (out / "plan.json").write_text(json.dumps(dict(written, projected_cases_v2=value)))
        capsys.readouterr()
        rc = run_cli("evaluate", "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, "evaluate", f"projected_cases_v2 {value!r}")

    def test_normalized_cell_in_a_year_outside_the_panel(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("normalize", "--input", str(fixture_path), "--out", str(out)) == 0
        with open(out / "normalized.csv", "a") as fh:
            fh.write("101,2030,1.0\n")
        capsys.readouterr()
        rc = run_cli("cluster", "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, "normalize", "normalized.csv")
        assert not (out / "clusters.json").exists()

    def test_normalized_cell_given_twice(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        for name in ("clusters.csv", "clusters.json"):
            (out / name).unlink()
        with open(out / "normalized.csv", "a") as fh:
            fh.write("106,2012,9.5\n")
        capsys.readouterr()
        rc = run_cli("cluster", "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, "normalize", "normalized.csv", "106, year 2012 twice")
        assert not (out / "clusters.json").exists()

    @pytest.mark.parametrize(
        "geo, label",
        [("106", "Bogus"), ("104", "Bogus"), ("104", "Average")],
        ids=["label_without_a_medoid", "medoid_with_a_new_label", "medoid_with_another_label"],
    )
    def test_clusters_csv_label_other_than_clusters_json(
        self, fixture_path, tmp_path, capsys, geo, label
    ):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        path = out / "clusters.csv"
        rows = [row.split(",") for row in path.read_text().splitlines()]
        path.write_text("".join(f"{g},{label if g == geo else old},{m}\n" for g, old, m in rows))
        capsys.readouterr()
        rc = run_cli("evaluate", "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, "cluster", "clusters.csv", "clusters.json", label)

    def test_clusters_csv_geo_listed_twice(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        with open(out / "clusters.csv", "a") as fh:
            fh.write("106,High,0\n")
        capsys.readouterr()
        rc = run_cli("evaluate", "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, "cluster", "clusters.csv", "geo 106 twice")

    def test_plan_budget_other_than_its_counts(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        doc = dict(read_json(out / "plan.json"), total_tests=99999)
        (out / "plan.json").write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run_cli("evaluate", "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, "evaluate", "plan.csv and")

    @pytest.mark.parametrize(
        "name, key, value",
        [("plan.json", "p1", True), ("plan.json", "delta_cases", "105.18"), ("clusters.json", "total_cost", True)],
    )
    def test_float_field_that_is_not_a_json_number(self, fixture_path, tmp_path, capsys, name, key, value):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        doc = dict(read_json(out / name), **{key: value})
        (out / name).write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run_cli("evaluate", "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, self.REUSED[name][1], name, f"{key} must be a number")

    def test_plan_target_year_outside_the_panel(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        doc = dict(read_json(out / "plan.json"), target_year=2030)
        (out / "plan.json").write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run_cli("evaluate", "--input", str(fixture_path), "--out", str(out))
        self.assert_data_error(rc, capsys, "evaluate", "plan.json")


class TestLatticeBounds:
    def test_non_finite_bounds_and_steps_are_config_errors(self, fixture_path, tmp_path, capsys):
        cfg = tmp_path / "huge.json"
        cfg.write_text('{"p1_range": [0, 1e400, 0.1]}')
        cases = (
            ["--config", str(cfg)],
            ["--p1-range=0:nan:0.1"],
            ["--p2-range=-inf:1:0.1"],
            ["--p1-range=0:1:inf", "--p2-range=0:1:inf"],
            ["--p1-range=0:1:nan"],
        )
        for flags in cases:
            capsys.readouterr()
            rc = run_cli("optimize", "--input", str(fixture_path), "--out", str(tmp_path), *flags)
            assert rc == 2, flags
            assert "finite" in capsys.readouterr().err

    def test_lattice_too_large_is_refused_before_it_is_built(
        self, fixture_path, tmp_path, capsys, monkeypatch
    ):
        def no_lattice(*args):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(allocate, "grid_values", no_lattice)
        rc = run_cli(
            "optimize",
            "--input",
            str(fixture_path),
            "--out",
            str(tmp_path),
            "--p1-range=0:1e9:0.1",
            "--p2-range=0:1:0.1",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error at stage config" in err
        assert "110,000,000,011 points" in err
        # a 0.01 step over the default ranges, 2001 x 2001 points, is allowed
        fine = ["--p1-range=-10:10:0.01", "--p2-range=-10:10:0.01"]
        argv = ["optimize", "--input", str(fixture_path), "--out", str(tmp_path), *fine]
        assert build_config(build_parser().parse_args(argv)).grid.step == 0.01

    def test_lattice_cap_is_exact(self):
        cap = allocate.MAX_LATTICE_POINTS
        allocate.GridConfig((0.0, cap - 1.0), (0.0, 0.0), 1.0)
        with pytest.raises(ConfigError, match=f"{cap + 1:,} points"):
            allocate.GridConfig((0.0, float(cap)), (0.0, 0.0), 1.0)


class TestFrontEnd:
    """Flags and config-file keys go through the same readers, and options
    may come before the command."""

    def config(self, *argv):
        return build_config(build_parser().parse_args(list(argv)))

    @pytest.mark.parametrize(
        "flags, values",
        [
            (["--no-population-cap"], {"population_cap": False}),
            (["--emit-trace"], {"emit_trace": True}),
            (["--p1-range=0:2:0.5"], {"p1_range": "0:2:0.5"}),
            (["--p1-range=0:2:0.5"], {"p1_range": [0, 2, 0.5]}),
            (["--p2-range=-1:1:0.25"], {"p2_range": "-1:1:0.25"}),
            (["--floor", "0.1"], {"floor": 0.1}),
            (["--total-tests", "5000"], {"total_tests": 5000}),
            (["--k", "3"], {"k": 3}),
            (["--year", "2020"], {"year": 2020}),
            (["--window", "2"], {"window": 2}),
        ],
    )
    def test_flag_equals_config_key(self, fixture_path, tmp_path, flags, values):
        paths = {"input": str(fixture_path), "out": str(tmp_path)}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict(paths, **values)))
        from_file = self.config("optimize", "--config", str(cfg))
        base = ["optimize", "--input", paths["input"], "--out", paths["out"]]
        assert self.config(*base, *flags) == from_file
        assert self.config(*base) != from_file

    def test_file_only_key_fills_its_own_field(self, fixture_path, tmp_path):
        cfg = tmp_path / "run.json"
        doc = {"input": str(fixture_path), "out": str(tmp_path), "require_nonnegative_delta": True}
        cfg.write_text(json.dumps(doc))
        constraints = self.config("optimize", "--config", str(cfg)).constraints
        assert constraints == allocate.ConstraintConfig(require_nonnegative_delta=True)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"p1_range": "0:1:0.5", "p2_range": "0:1:0.25", "floor": "x"}, "share one step"),
            ({"p1_range": "0:nan:0.1", "year": "x"}, "p1_range bounds must be finite"),
            ({"floor": 2, "year": "abc"}, "floor_fraction must be in [0, 1]"),
            ({"window": 0, "k": "x"}, "k must be an integer"),
            ({"input": "", "out": 5}, "an input CSV is required"),
        ],
    )
    def test_first_bad_setting_in_check_order_is_reported(self, tmp_path, capsys, values, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict({"input": "panel.csv", "out": "o"}, **values)))
        assert run_cli("optimize", "--config", str(cfg)) == 2
        assert message in capsys.readouterr().err

    def test_rate_window_sets_the_case_rates(self, fixture_path, tmp_path):
        plans = {}
        for rate_window in (None, 3, 1):
            cfg = tmp_path / "run.json"
            out = tmp_path / f"rates{rate_window}"
            doc = {"input": str(fixture_path), "out": str(out), "rate_window": rate_window}
            cfg.write_text(json.dumps(doc))
            assert run_cli("optimize", "--config", str(cfg)) == 0
            plans[rate_window] = read_json(out / "plan.json")
        # rate_window defaults to window, which defaults to 3
        assert plans[None] == plans[3]
        assert plans[1]["projected_cases_v1"] != plans[3]["projected_cases_v1"]

    def test_options_before_the_command(self, fixture_path, tmp_path, capsys):
        options = ["--input", str(fixture_path), "--out", str(tmp_path / "a"), "--k", "3"]
        options.append("--emit-trace")
        assert self.config(*options, "cluster") == self.config("cluster", *options)
        assert run_cli(*options, "cluster") == 0
        before = capsys.readouterr().out
        assert run_cli("cluster", *options) == 0
        assert capsys.readouterr().out == before
        assert before.startswith("clustered into 3 profiles")

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for name, (_, text) in COMMANDS.items():
            assert name in out and text in out
        assert len(COMMANDS) == 6

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--year", "abc"], "year must be an integer, got 'abc'"),
            (["--floor", "x"], "floor must be a number, got 'x'"),
            (["--k", "2.0"], "k must be an integer, got '2.0'"),
        ],
    )
    def test_bad_flag_value_is_a_config_error(self, fixture_path, tmp_path, capsys, flags, message):
        rc = run_cli("optimize", "--input", str(fixture_path), "--out", str(tmp_path), *flags)
        assert rc == 2
        assert f"error at stage config: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [{"input": 5, "out": "o"}, {"out": ["a"]}])
    def test_path_that_is_not_a_string(self, fixture_path, tmp_path, capsys, values):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict({"input": str(fixture_path)}, **values)))
        rc = run_cli("ingest", "--config", str(cfg))
        assert rc == 2
        assert "must be a path string" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["config", "flag"])
    @pytest.mark.parametrize("key", ["input", "out"])
    def test_path_with_a_nul_character(self, fixture_path, tmp_path, capsys, form, key):
        paths = dict({"input": str(fixture_path), "out": str(tmp_path / "artifacts")}, **{key: "a\0b"})
        if form == "config":
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(paths))
            rc = run_cli("ingest", "--config", str(cfg))
        else:
            rc = run_cli("ingest", "--input", paths["input"], "--out", paths["out"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error at stage config: {key} must not hold a NUL character")
        assert not (tmp_path / "artifacts").exists()

    def test_zero_test_forecast_stops_before_the_search(self, tmp_path, capsys):
        # tests fall from 1,000 to 300 per neighborhood, so the trend forecasts
        # a negative total, which the forecast floors at 0
        falling = tmp_path / "falling.csv"
        with open(falling, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["geo_id", "geo_name", "borough", "year", "tests", "cases_5plus",
                 "cases_10plus", "cases_15plus", "child_population"]
            )
            for geo in range(1, 6):
                for year, tests in ((2019, 1000), (2020, 300)):
                    row = [geo, f"Area {geo}", "Riverside", year, tests, 10 * geo, 4, 1, 5000]
                    writer.writerow(row)
        out = tmp_path / "artifacts"
        rc = run_cli("run", "--input", str(falling), "--out", str(out), "--window", "1")
        assert rc == 1
        err = capsys.readouterr().err
        assert "error at stage optimize" in err
        assert "forecasts 0 tests" in err and "--total-tests" in err
        assert not (out / "plan.json").exists()
        assert not (out / "evaluation.json").exists()
        argv = ["run", "--input", str(falling), "--out", str(out), "--window", "1"]
        assert run_cli(*argv, "--total-tests", "1000") == 0


class TestBudgetBound:
    """Tests are apportioned through float64, which is exact up to 2**53."""

    def test_override_above_2_53_is_a_config_error(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        argv = ["run", "--input", str(fixture_path), "--out", str(out), "--no-population-cap"]
        for total in (10**16, 10**20):
            assert run_cli(*argv, "--total-tests", str(total)) == 2
            err = capsys.readouterr().err
            assert "error at stage config: total_tests must be from 1 to 2**53" in err
            assert f"got {total}" in err
        assert not out.exists()
        assert run_cli(*argv, "--total-tests", str(2**53)) == 0
        with open(out / "plan.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for column in ("v1_tests", "v2_tests"):
            assert sum(int(row[column]) for row in rows) == 2**53

    def test_forecast_above_2_53_stops_before_the_search(self, tmp_path, capsys):
        # 2e15 tests in each of five neighborhoods keeps the panel's int64
        # sums in range, but forecasts 1e16 tests a year
        big = tmp_path / "big.csv"
        with open(big, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(panel.CANONICAL_FIELDS)
            for geo in range(1, 6):
                for year in (2018, 2019, 2020):
                    cases = geo * 10**13 + (year - 2018) * 10**12
                    row = [geo, f"Area {geo}", "Riverside", year, 2 * 10**15, cases, 0, 0, 10**16]
                    writer.writerow(row)
        out = tmp_path / "artifacts"
        rc = run_cli("run", "--input", str(big), "--out", str(out), "--no-population-cap")
        assert rc == 1
        err = capsys.readouterr().err
        assert "error at stage optimize: the test-total trend forecasts 10000000000000000 tests" in err
        assert "2**53" in err and "--total-tests" in err
        assert not (out / "plan.json").exists()
        argv = ["run", "--input", str(big), "--out", str(out), "--no-population-cap"]
        assert run_cli(*argv, "--total-tests", str(10**15)) == 0


class TestUnreadablePanel:
    def assert_ingest_error(self, rc, capsys, *parts):
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error at stage ingest: ")
        assert "Traceback" not in err
        for part in parts:
            assert part in err

    def test_panel_not_in_utf8(self, fixture_path, tmp_path, capsys):
        text = fixture_path.read_text(encoding="utf-8").replace("Northpoint", "Bédford")
        latin = tmp_path / "latin.csv"
        latin.write_text(text, encoding="cp1252")
        rc = run_cli("ingest", "--input", str(latin), "--out", str(tmp_path / "out"))
        self.assert_ingest_error(rc, capsys, str(latin), "is not UTF-8 text (byte 0xe9)")

    def test_field_past_the_csv_size_limit(self, fixture_path, tmp_path, capsys):
        long = tmp_path / "long.csv"
        # the first 2012 row is the fixture's fourth line
        edit = lambda row: dict(row, geo_name="x" * 140_000) if row["year"] == "2012" else row
        write_fixture_variant(fixture_path, long, edit)
        rc = run_cli("run", "--input", str(long), "--out", str(tmp_path / "out"))
        self.assert_ingest_error(rc, capsys, str(long), "line 4:", "field larger than field limit")


class TestTooFewNeighborhoods:
    def test_fewer_neighborhoods_than_profiles(self, fixture_path, tmp_path, capsys):
        four = write_fixture_variant(
            fixture_path, tmp_path / "four.csv", lambda row: row if int(row["geo_id"]) < 105 else None
        )
        argv = ["run", "--input", str(four), "--out", str(tmp_path / "out")]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "error at stage cluster: need at least 5 neighborhoods to seed profiles, have 4" in err
        assert run_cli(*argv, "--k", "6") == 1
        assert "error at stage cluster: k=6 exceeds the 4 series available" in capsys.readouterr().err

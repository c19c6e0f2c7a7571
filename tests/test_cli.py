"""Command-line tests: config merging, per-stage artifacts, stage commands
rerun over earlier outputs, and exit codes on failure paths.

Everything drives ``cli.main`` in process against the small panel fixture,
so stdout, stderr, and the files left in the output directory are all
observable without subprocesses.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from leadalloc import allocate, panel
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

    @pytest.mark.parametrize("command", ["cluster", "run"])
    def test_forecast_window_one_rejected(self, fixture_path, tmp_path, capsys, command):
        """A trend needs two years; the window is refused with the other
        settings, before any stage writes a file, not at the forecast."""
        out = tmp_path / "artifacts"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input": str(fixture_path), "out": str(out), "forecast_window": 1}))
        rc = run_cli(command, "--config", str(cfg))
        assert rc == 2
        assert "error at stage config: forecast_window must be at least 2" in capsys.readouterr().err
        assert not out.exists()

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
        with open(out / "normalized.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 72
        for year in {row["year"] for row in rows}:
            year_values = [float(row["normalized_rate"]) for row in rows if row["year"] == year]
            assert abs(sum(year_values) / len(year_values) - 1.0) <= 1e-9

    def test_cluster(self, fixture_path, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("cluster", "--input", str(fixture_path), "--out", str(out)) == 0
        with open(out / "clusters.csv", newline="") as fh:
            labels = {int(row["geo_id"]): row["label"] for row in csv.DictReader(fh)}
        assert labels[101] == "High"
        assert labels[102] == "Low"
        assert labels[106] == "Average"
        assert labels[104] == "Rising"
        assert labels[105] == "Declining"

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

    def test_budget_is_forecast_from_the_years_up_to_the_target(self, fixture_path, tmp_path, capsys):
        """A plan for 2019 spends the 2020 forecast of the 2010-2019 totals,
        not the 2022 forecast of every panel year."""
        for year, total in ((2019, 12400), (2021, 12480)):
            out = tmp_path / str(year)
            assert run_cli("run", "--input", str(fixture_path), "--out", str(out), "--year", str(year)) == 0
            doc = read_json(out / "plan.json")
            assert (doc["target_year"], doc["total_tests"]) == (year, total)
        # the first panel year has no trend to forecast from
        argv = ["run", "--input", str(fixture_path), "--out", str(tmp_path / "2010"), "--year", "2010", "--window", "1"]
        assert run_cli(*argv) == 2
        assert "error at stage optimize: need at least 2 yearly totals to forecast" in capsys.readouterr().err
        assert run_cli(*argv, "--total-tests", "12480") == 0

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
            "normalized.csv",
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
    """A stage command over a run's directory computes every stage it needs
    from the panel and its own settings, and first removes the files of the
    stages it computes and of every stage downstream of them."""

    # what each command leaves of a `run --emit-trace` directory
    LEFT = {
        "ingest": {"validation.json", "panel.csv", "normalized.csv", "clusters.csv", "clusters.json",
                   "plan.csv", "plan.json", "trace.csv", "evaluation.json", "evaluation.txt"},
        "normalize": {"validation.json", "normalized.csv", "plan.csv", "plan.json", "trace.csv"},
        "cluster": {"validation.json", "normalized.csv", "clusters.csv", "clusters.json",
                    "plan.csv", "plan.json", "trace.csv"},
        "optimize": {"validation.json", "normalized.csv", "clusters.csv", "clusters.json", "plan.csv", "plan.json"},
        "evaluate": {"validation.json", "normalized.csv", "clusters.csv", "clusters.json",
                     "plan.csv", "plan.json", "evaluation.json", "evaluation.txt"},
        "run": {"validation.json", "normalized.csv", "clusters.csv", "clusters.json",
                "plan.csv", "plan.json", "evaluation.json", "evaluation.txt"},
    }

    @pytest.mark.parametrize("command", LEFT)
    def test_a_command_removes_the_files_it_would_leave_stale(self, fixture_path, tmp_path, command):
        """Over the default floor's run, optimize --floor 0.9 leaves no
        evaluation of the old plan."""
        out = tmp_path / "artifacts"
        argv = ["--input", str(fixture_path), "--out", str(out)]
        assert run_cli("run", *argv, "--emit-trace") == 0
        assert run_cli(command, *argv, "--floor", "0.9") == 0
        assert {path.name for path in out.iterdir()} == self.LEFT[command]

    def test_evaluate_at_another_floor_plans_for_that_floor(self, fixture_path, tmp_path, capsys):
        """The floor-0.25 plan also meets a floor of 0.1, but it is not the
        plan for that floor."""
        out, fresh = tmp_path / "artifacts", tmp_path / "fresh"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        assert run_cli("run", "--input", str(fixture_path), "--out", str(fresh), "--floor", "0.1") == 0
        capsys.readouterr()
        assert run_cli("evaluate", "--input", str(fixture_path), "--out", str(out), "--floor", "0.1") == 0
        assert capsys.readouterr().out.startswith("case difference +126.22;")
        for path in fresh.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_evaluate_at_another_k_writes_its_clusters(self, fixture_path, tmp_path):
        out = tmp_path / "artifacts"
        argv = ["--input", str(fixture_path), "--out", str(out)]
        assert run_cli("run", *argv) == 0
        assert run_cli("evaluate", *argv, "--k", "3") == 0
        names = {"cluster1", "cluster2", "cluster3"}
        assert set(read_json(out / "clusters.json")["medoids"]) == names
        assert set(read_json(out / "evaluation.json")["cluster_cases"]) == names

    def test_evaluate_rewrites_an_edited_plan(self, fixture_path, tmp_path):
        out = tmp_path / "artifacts"
        argv = ["--input", str(fixture_path), "--out", str(out)]
        assert run_cli("run", *argv) == 0
        written = {path.name: path.read_bytes() for path in out.iterdir()}
        (out / "plan.json").write_text(json.dumps(dict(read_json(out / "plan.json"), p1=1.0, p2=0.0)))
        assert run_cli("evaluate", *argv) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == written

    def test_evaluate_over_the_run_of_another_panel(self, fixture_path, tmp_path):
        out, fresh = tmp_path / "artifacts", tmp_path / "fresh"
        other = write_fixture_variant(fixture_path, tmp_path / "shifted.csv", shift_geo)
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out)) == 0
        assert run_cli("evaluate", "--input", str(other), "--out", str(out)) == 0
        assert run_cli("evaluate", "--input", str(other), "--out", str(fresh)) == 0
        for path in fresh.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

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

    @pytest.mark.parametrize(
        "edit, words",
        [
            # row 31 is geo 103's 2016 row, its year typed as 2201
            (
                lambda i, year: "2201" if i == 30 else year,
                "years 2022-2200; the first kept row after the gap is data row 31, in 2201",
            ),
            # every 2015 row dropped, so row 6 is geo 101's 2016 row
            (
                lambda i, year: None if year == "2015" else year,
                "year 2015; the first kept row after the gap is data row 6, in 2016",
            ),
        ],
        ids=["year_2201", "no_2015"],
    )
    def test_year_gap_in_the_fixture(self, fixture_path, tmp_path, capsys, edit, words):
        """The panel's years are its rows' own, so a typo or a dropped year
        leaves a gap that ends the run, not a plan over positions."""
        header, *rows = fixture_path.read_text().splitlines()
        edited = []
        for i, row in enumerate(rows):
            fields = row.split(",")
            fields[3] = edit(i, fields[3])
            if fields[3] is not None:
                edited.append(",".join(fields))
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join([header, *edited]) + "\n")
        rc = run_cli("run", "--input", str(broken), "--out", str(tmp_path / "out"))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error at stage ingest: the panel's years must run without a gap, "
            f"but no kept row holds {words}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_window_longer_than_panel(self, fixture_path, tmp_path, capsys):
        rc = run_cli(
            "optimize", "--input", str(fixture_path), "--out", str(tmp_path), "--window", "50"
        )
        assert rc == 2
        assert "error at stage optimize" in capsys.readouterr().err

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

    def test_failed_run_leaves_no_earlier_plan(self, fixture_path, tmp_path, capsys):
        """A run that stops at optimize leaves only what it wrote, so no
        earlier plan is left for evaluate to score on the new clusters."""
        out = tmp_path / "artifacts"
        argv = ["--input", str(fixture_path), "--out", str(out)]
        assert run_cli("run", *argv, "--emit-trace") == 0
        infeasible = ["--k", "3", "--p1-range=-2:-1:0.5", "--p2-range=-2:-1:0.5"]
        assert run_cli("run", *argv, *infeasible) == 3
        for name in ("plan.csv", "plan.json", "trace.csv", "evaluation.json", "evaluation.txt"):
            assert not (out / name).exists(), name
        capsys.readouterr()
        assert run_cli("evaluate", *argv, *infeasible) == 3
        captured = capsys.readouterr()
        assert "error at stage optimize" in captured.err
        assert "case difference" not in captured.out

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
    """A file of an earlier stage that was damaged or edited is never read
    back: the next stage command that takes it computes its stage again
    from the panel, exits 0 and writes the run's bytes."""

    # each file a run writes: the command that takes it, and the stage that writes it
    REUSED = {
        "normalized.csv": ("cluster", "normalize"),
        "clusters.csv": ("evaluate", "cluster"),
        "clusters.json": ("evaluate", "cluster"),
        "plan.csv": ("evaluate", "optimize"),
        "plan.json": ("evaluate", "optimize"),
    }

    # a coarse lattice keeps the two searches of each case short
    LATTICE = ("--p1-range=-10:10:0.5", "--p2-range=-10:10:0.5")

    @pytest.fixture
    def out(self, fixture_path, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("run", "--input", str(fixture_path), "--out", str(out), *self.LATTICE) == 0
        self.written = {path.name: path.read_bytes() for path in out.iterdir()}
        return out

    def assert_recomputed(self, fixture_path, out, capsys, name):
        """The command that takes ``name`` rewrites it, and every file it
        leaves holds the run's bytes."""
        capsys.readouterr()
        command = self.REUSED[name][0]
        assert run_cli(command, "--input", str(fixture_path), "--out", str(out), *self.LATTICE) == 0
        assert capsys.readouterr().err == ""
        left = {path.name: path.read_bytes() for path in out.iterdir()}
        assert name in left
        assert left == {file: self.written[file] for file in left}

    def edit_json(self, path, **changes):
        path.write_text(json.dumps(dict(read_json(path), **changes)))

    @pytest.mark.parametrize(
        "name, damage",
        [(name, "directory") for name in REUSED]
        + [(name, "long_field") for name in REUSED if name.endswith(".csv")]
        + [(name, "not_utf8") for name in REUSED]
        + [(name, "no_geo_id_column") for name in REUSED if name.endswith(".csv")]
        + [("plan.csv", "no_case_rate_column")],
    )
    def test_file_that_cannot_be_read(self, fixture_path, out, capsys, name, damage):
        path = out / name
        if damage == "directory":
            path.unlink()
            path.mkdir()
        elif damage == "long_field":  # a field past csv's size limit of 131,072 characters
            with open(path, "a") as fh:
                fh.write("x" * 140_001 + "\n")
        elif damage == "not_utf8":  # an é saved as cp1252
            with open(path, "ab") as fh:
                fh.write(b"\xe9\n")
        elif damage == "no_geo_id_column":
            path.write_text(path.read_text().replace("geo_id", "geo", 1))
        else:  # a plan.csv written before the plan carried its case rates
            path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines()))
        if damage != "directory":
            self.assert_recomputed(fixture_path, out, capsys, name)
            return
        # a directory in a file's place is left for the stage's write
        capsys.readouterr()
        command, stage = self.REUSED[name]
        assert run_cli(command, "--input", str(fixture_path), "--out", str(out), *self.LATTICE) == 1
        assert f"error at stage {stage}: cannot write {path}" in capsys.readouterr().err

    # a hand edit that puts a non-integer in an integer field, and the file it edits
    NOT_INTEGERS = {
        "target_year_fraction": ("plan.json", lambda doc: doc.update(target_year=2020.5)),
        "target_year_text": ("plan.json", lambda doc: doc.update(target_year=str(doc["target_year"]))),
        "total_tests_float": ("plan.json", lambda doc: doc.update(total_tests=float(doc["total_tests"]))),
        "n_iter_bool": ("clusters.json", lambda doc: doc.update(n_iter=True)),
        "medoid_float": ("clusters.json", lambda doc: doc["medoids"].update(High=float(doc["medoids"]["High"]))),
    }

    @pytest.mark.parametrize("edit", NOT_INTEGERS)
    def test_integer_field_that_is_not_a_json_integer(self, fixture_path, out, capsys, edit):
        name, change = self.NOT_INTEGERS[edit]
        doc = read_json(out / name)
        change(doc)
        (out / name).write_text(json.dumps(doc))
        self.assert_recomputed(fixture_path, out, capsys, name)

    def test_plan_json_without_a_key(self, fixture_path, out, capsys):
        doc = read_json(out / "plan.json")
        del doc["p1"]
        (out / "plan.json").write_text(json.dumps(doc))
        self.assert_recomputed(fixture_path, out, capsys, "plan.json")

    def replace_last_field_of_first_row(self, path, value):
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + value
        path.write_text("\n".join(lines) + "\n")

    def test_normalized_rate_not_a_number(self, fixture_path, out, capsys):
        self.replace_last_field_of_first_row(out / "normalized.csv", "zz")
        self.assert_recomputed(fixture_path, out, capsys, "normalized.csv")

    def test_clusters_json_without_a_key_or_with_a_list(self, fixture_path, out, capsys):
        written = read_json(out / "clusters.json")
        for medoids in (None, list(written["medoids"].values())):
            doc = dict(written)
            if medoids is None:
                del doc["medoids"]
            else:
                doc["medoids"] = medoids
            (out / "clusters.json").write_text(json.dumps(doc))
            self.assert_recomputed(fixture_path, out, capsys, "clusters.json")

    def test_normalized_rate_not_finite(self, fixture_path, out, capsys):
        self.replace_last_field_of_first_row(out / "normalized.csv", "nan")
        self.assert_recomputed(fixture_path, out, capsys, "normalized.csv")

    def test_plan_number_not_finite(self, fixture_path, out, capsys):
        for key in ("projected_cases_v2", "total_tests"):
            self.edit_json(out / "plan.json", **{key: float("inf")})
            self.assert_recomputed(fixture_path, out, capsys, "plan.json")
        self.replace_last_field_of_first_row(out / "plan.csv", "nan")
        self.assert_recomputed(fixture_path, out, capsys, "plan.csv")

    def test_clusters_total_cost_not_finite(self, fixture_path, out, capsys):
        self.edit_json(out / "clusters.json", total_cost=float("nan"))
        self.assert_recomputed(fixture_path, out, capsys, "clusters.json")

    def test_plan_of_no_tests(self, fixture_path, out, capsys):
        self.edit_json(out / "plan.json", total_tests=0)
        self.assert_recomputed(fixture_path, out, capsys, "plan.json")

    @pytest.mark.parametrize("rate", ["-1.5", "0.5"], ids=["negative", "off_the_projection"])
    def test_edited_case_rate(self, fixture_path, out, capsys, rate):
        self.replace_last_field_of_first_row(out / "plan.csv", rate)
        self.assert_recomputed(fixture_path, out, capsys, "plan.csv")

    @pytest.mark.parametrize(
        "projected", [lambda total: -5.0, lambda total: total + 1.0], ids=["below_0", "above_T"]
    )
    def test_projected_cases_outside_the_budget(self, fixture_path, out, capsys, projected):
        self.edit_json(out / "plan.json", projected_cases_v2=projected(read_json(out / "plan.json")["total_tests"]))
        self.assert_recomputed(fixture_path, out, capsys, "plan.json")

    @pytest.mark.parametrize(
        "edited", [("projected_cases_v2", "delta_cases"), ("delta_cases",)], ids=["projected_and_delta", "delta_only"]
    )
    def test_plan_json_that_plan_csv_does_not_project(self, fixture_path, out, capsys, edited):
        written = read_json(out / "plan.json")
        self.edit_json(out / "plan.json", **{key: written[key] + 300 for key in edited})
        self.assert_recomputed(fixture_path, out, capsys, "plan.json")

    @pytest.mark.parametrize("field", ["projected_cases_v1", "projected_cases_v2", "delta_cases"])
    def test_plan_json_off_by_a_relative_1e_12(self, fixture_path, out, capsys, field):
        self.edit_json(out / "plan.json", **{field: read_json(out / "plan.json")[field] * (1 + 1e-12)})
        self.assert_recomputed(fixture_path, out, capsys, "plan.json")

    @pytest.mark.parametrize(
        "edit", ["swap_v2_share", "move_v1_test", "move_v2_test", "scale_v2_share", "negative_budget"]
    )
    def test_test_counts_that_their_shares_do_not_give(self, fixture_path, out, capsys, edit):
        with open(out / "plan.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        first, second = rows[0], rows[1]
        if edit == "swap_v2_share":  # with plan.json set to match
            first["v2_share"], second["v2_share"] = second["v2_share"], first["v2_share"]
            shares = [float(row["v2_share"]) for row in rows]
            rates = [float(row["case_rate"]) for row in rows]
            written = read_json(out / "plan.json")
            v2 = float(written["total_tests"] * np.sum(np.array(rates) * np.array(shares)))
            self.edit_json(out / "plan.json", projected_cases_v2=v2, delta_cases=v2 - written["projected_cases_v1"])
        elif edit == "scale_v2_share":
            first["v2_share"] = repr(1.5 * float(first["v2_share"]))
        elif edit == "negative_budget":  # every count and projection negated
            for row in rows:
                row["v1_tests"], row["v2_tests"] = str(-int(row["v1_tests"])), str(-int(row["v2_tests"]))
            written = read_json(out / "plan.json")
            negated = ("total_tests", "projected_cases_v1", "projected_cases_v2", "delta_cases")
            self.edit_json(out / "plan.json", **{key: -written[key] for key in negated})
        else:  # one test moved between two geos, so the column still sums to the budget
            column = edit[len("move_"):] + "s"
            first[column], second[column] = str(int(first[column]) - 1), str(int(second[column]) + 1)
        with open(out / "plan.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        self.assert_recomputed(fixture_path, out, capsys, "plan.csv")

    def test_plan_that_breaks_the_current_constraints(self, fixture_path, out, tmp_path):
        """The floor-0.25 plan falls below a floor of 0.9 at four geos; the
        plan for that floor is the one evaluate writes."""
        fresh = tmp_path / "fresh"
        argv = ["--input", str(fixture_path), "--floor", "0.9", *self.LATTICE]
        assert run_cli("run", *argv, "--out", str(fresh)) == 0
        assert run_cli("evaluate", *argv, "--out", str(out)) == 0
        assert read_json(out / "plan.json") != json.loads(self.written["plan.json"])
        for name in ("plan.csv", "plan.json", "evaluation.json", "evaluation.txt"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_normalized_cell_in_a_year_outside_the_panel(self, fixture_path, out, capsys):
        with open(out / "normalized.csv", "a") as fh:
            fh.write("101,2030,1.0\n")
        self.assert_recomputed(fixture_path, out, capsys, "normalized.csv")

    def test_normalized_cell_given_twice(self, fixture_path, out, capsys):
        with open(out / "normalized.csv", "a") as fh:
            fh.write("106,2012,9.5\n")
        self.assert_recomputed(fixture_path, out, capsys, "normalized.csv")

    @pytest.mark.parametrize(
        "geo, label",
        [("106", "Bogus"), ("104", "Bogus"), ("104", "Average")],
        ids=["label_without_a_medoid", "medoid_with_a_new_label", "medoid_with_another_label"],
    )
    def test_clusters_csv_label_other_than_clusters_json(self, fixture_path, out, capsys, geo, label):
        path = out / "clusters.csv"
        rows = [row.split(",") for row in path.read_text().splitlines()]
        path.write_text("".join(f"{g},{label if g == geo else old},{m}\n" for g, old, m in rows))
        self.assert_recomputed(fixture_path, out, capsys, "clusters.csv")

    def test_clusters_csv_geo_listed_twice(self, fixture_path, out, capsys):
        with open(out / "clusters.csv", "a") as fh:
            fh.write("106,High,0\n")
        self.assert_recomputed(fixture_path, out, capsys, "clusters.csv")

    def test_plan_budget_other_than_its_counts(self, fixture_path, out, capsys):
        self.edit_json(out / "plan.json", total_tests=99999)
        self.assert_recomputed(fixture_path, out, capsys, "plan.json")

    @pytest.mark.parametrize(
        "name, key, value",
        [("plan.json", "p1", True), ("plan.json", "delta_cases", "105.18"), ("clusters.json", "total_cost", True)],
    )
    def test_float_field_that_is_not_a_json_number(self, fixture_path, out, capsys, name, key, value):
        self.edit_json(out / name, **{key: value})
        self.assert_recomputed(fixture_path, out, capsys, name)

    def test_plan_target_year_outside_the_panel(self, fixture_path, out, capsys):
        self.edit_json(out / "plan.json", target_year=2030)
        self.assert_recomputed(fixture_path, out, capsys, "plan.json")


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

"""Command-line tests: config merging, per-stage artifacts, partial reruns
that pick up earlier outputs, and exit codes on failure paths.

Everything drives ``cli.main`` in process against the small panel fixture,
so stdout, stderr, and the files left in the output directory are all
observable without subprocesses.
"""

import csv
import json

from leadalloc import allocate, cluster, normalize, panel
from leadalloc.cli import build_config, build_parser, main


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

    def test_file_only(self, fixture_path, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
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
        assert "error at stage optimize" in capsys.readouterr().err

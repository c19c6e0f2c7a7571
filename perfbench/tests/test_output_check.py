import csv
import json
import time

import pytest

import check
import gen
import spans
from leadalloc import allocate, cli, panel

SPEC = gen.PanelSpec(n_geos=12, n_years=6, mean_tests=400.0)
FLAGS = ["--p1-range", "0:4:0.5", "--p2-range", "0:4:0.5", "--emit-trace"]


@pytest.fixture()
def run_dir(tmp_path):
    """A finished `leadalloc run` on a small generated panel."""
    csv_path = tmp_path / "panel.csv"
    gen.write_panel_csv(SPEC, 1, csv_path)
    out = tmp_path / "out"
    argv = ["run", "--input", str(csv_path), "--out", str(out), *FLAGS]
    assert cli.main(argv) == 0
    config = cli.build_config(cli.build_parser().parse_args(argv))
    return out, panel.parse_panel(csv_path), config


def rewrite_plan_csv(out, edit):
    with open(out / "plan.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(out / "plan.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_a_correct_run_passes(run_dir):
    out, data, config = run_dir
    assert check.check_artifacts(out, data, config.constraints) == []


def test_test_total_mismatch_is_caught(run_dir):
    out, data, config = run_dir

    def add_one(rows):
        rows[1][4] = str(int(rows[1][4]) + 1)

    rewrite_plan_csv(out, add_one)
    problems = check.check_artifacts(out, data, config.constraints)
    assert any("sum(v2_tests)" in p for p in problems)


def test_population_cap_breach_is_caught(run_dir):
    out, data, config = run_dir
    geo = int(next(csv.DictReader(open(out / "plan.csv", encoding="utf-8")))["geo_id"])
    population = data.record(geo, data.years[-1]).child_population

    def overfill(rows):
        moved = population + 1 - int(rows[1][4])
        rows[1][4] = str(population + 1)
        rows[2][4] = str(int(rows[2][4]) - moved)

    rewrite_plan_csv(out, overfill)
    problems = check.check_artifacts(out, data, config.constraints)
    assert any("population_cap" in p for p in problems)


def test_constraints_are_checked_without_the_program_too(run_dir, monkeypatch):
    out, data, config = run_dir
    monkeypatch.setattr(allocate, "check_constraints", lambda *args: [])
    geo = int(next(csv.DictReader(open(out / "plan.csv", encoding="utf-8")))["geo_id"])
    population = data.record(geo, data.years[-1]).child_population

    def overfill_and_starve(rows):
        moved = population + 1 - int(rows[1][4])
        rows[1][4] = str(population + 1)
        rows[2][4] = str(int(rows[2][4]) - moved)
        rows[2][2] = "0.0"  # v2_share below any positive floor

    rewrite_plan_csv(out, overfill_and_starve)
    problems = check.check_artifacts(out, data, config.constraints)
    assert any("exceed its population" in p for p in problems)
    assert any("below its floor" in p for p in problems)


def test_negative_delta_is_caught(run_dir):
    out, data, config = run_dir
    doc = json.loads((out / "plan.json").read_text())
    doc["delta_cases"] = -1.0
    (out / "plan.json").write_text(json.dumps(doc))
    problems = check.check_artifacts(out, data, config.constraints)
    assert any("negative" in p for p in problems)


def test_golden_comparison_tolerance_and_fields(run_dir):
    out, _, _ = run_dir
    recorded = check.golden_values(out)
    assert check.compare_golden(check.golden_values(out), recorded) == []

    nearly = dict(recorded, delta_cases=recorded["delta_cases"] * (1 + 1e-12))
    assert check.compare_golden(nearly, recorded) == []
    off = dict(recorded, z=recorded["z"] * (1 + 1e-6))
    assert check.compare_golden(off, recorded) == ["z = %r, recorded %r" % (off["z"], recorded["z"])]
    moved = dict(recorded, v2_tests=[recorded["v2_tests"][0] + 1, *recorded["v2_tests"][1:]])
    assert check.compare_golden(moved, recorded) == ["v2_tests differs from the recorded values"]
    assert "p1" not in recorded and "p2" not in recorded


def test_digests_change_with_any_artifact(run_dir):
    out, _, _ = run_dir
    before = check.artifact_digests(out)
    assert {"plan.csv", "plan.json", "clusters.csv", "trace.csv", "evaluation.json"} <= set(before)
    with open(out / "evaluation.txt", "a", encoding="utf-8") as fh:
        fh.write(" ")
    after = check.artifact_digests(out)
    assert [name for name in before if before[name] != after[name]] == ["evaluation.txt"]


def test_traced_run_matches_the_cli_bytes_and_counts(run_dir, tmp_path):
    out, data, config = run_dir
    traced_out = tmp_path / "traced"
    tracer = spans.Tracer()
    run = spans.traced_main(["run", "--input", str(config.input_path), "--out", str(traced_out), *FLAGS], tracer, 0)
    assert run.exit_code == 0
    assert check.artifact_digests(traced_out) == check.artifact_digests(out)

    counts = spans.layer_counts(traced_out, run)
    assert counts["allocate.points_evaluated"] == 81
    rejected = sum(v for k, v in counts.items() if k.startswith("allocate.rejected_"))
    assert counts["allocate.points_feasible"] + rejected == 81
    assert counts["allocate.trace_bytes"] == (traced_out / "trace.csv").stat().st_size
    assert set(tracer.stage_seconds(0)) == {"pipeline", *spans.STAGE_OF_CALL.values()}
    # the stand-ins are gone once the run ends
    assert cli.allocate is allocate and cli.panel is panel
    assert not hasattr(panel.NeighborhoodPanel.yearly_test_totals, "__wrapped__")


def test_work_outside_the_module_calls_lowers_coverage(run_dir, tmp_path, monkeypatch):
    _, _, config = run_dir
    # the full default lattice, so the run is long enough for argument
    # parsing to be a small share of it, as on the benchmark's workloads
    argv = ["run", "--input", str(config.input_path), "--out", str(tmp_path / "t")]
    tracer = spans.Tracer()
    assert spans.traced_main(argv, tracer, 0).exit_code == 0
    assert 0.95 <= tracer.coverage(0) <= 1.0

    root = tracer.spans[0]
    pause = 0.2 * (root.end - root.start)
    real_target_year = cli._target_year

    def slow_target_year(*args):
        time.sleep(pause)
        return real_target_year(*args)

    monkeypatch.setattr(cli, "_target_year", slow_target_year)
    assert spans.traced_main(argv, tracer, 1).exit_code == 0
    assert tracer.coverage(1) < 0.95


def test_a_failing_cli_run_reports_its_exit_code(tmp_path):
    tracer = spans.Tracer()
    run = spans.traced_main(["run", "--input", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "t")], tracer, 0)
    assert run.exit_code != 0
    assert "error at stage" in run.stderr
    assert cli.allocate is allocate


@pytest.mark.parametrize(
    "reason, counter",
    [
        ("negative share score at (p1=-1.0, p2=0.5)", "negative_score"),
        ("non-positive score total at (p1=0.0, p2=0.0)", "negative_score"),
        ("negative_score", "negative_score"),
        ("floor", "floor"),
        ("population_cap", "population_cap"),
    ],
)
def test_reason_counters(reason, counter):
    assert spans.reason_counter(reason) == counter


def test_unknown_reason_is_an_error():
    with pytest.raises(ValueError):
        spans.reason_counter("something new")

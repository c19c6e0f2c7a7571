"""BENCHMARK.json names the workloads and metrics the harness produces."""

import json
from pathlib import Path
from types import SimpleNamespace

import gen
import harness
import spans

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def names(section):
    return [entry["name"] for entry in BENCHMARK[section]]


def test_workloads_match_the_generator():
    assert names("workloads") == list(gen.WORKLOADS)


def test_end_to_end_metrics_match():
    bench = SimpleNamespace(cells=100)
    samples = {"run_s": [1.0, 1.2], "peak_rss_mb": [40.0, 41.0], "setup_s": [0.2, 0.3]}
    metrics = harness.end_to_end_metrics(bench, samples)
    assert list(metrics) == names("end_to_end")
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == units


def test_per_layer_metrics_match(tmp_path):
    csv_path = tmp_path / "panel.csv"
    gen.write_panel_csv(gen.PanelSpec(n_geos=10, n_years=5), 0, csv_path)
    out = tmp_path / "out"
    tracer = spans.Tracer()
    run = spans.traced_main(["run", "--input", str(csv_path), "--out", str(out), "--p1-range", "0:1:0.5"], tracer, 0)
    assert run.exit_code == 0
    traced = {"stages": tracer.stage_seconds(0), "counts": spans.layer_counts(out, run), "coverage": 1.0}
    samples = {
        "traced": [traced, traced],
        "memory": spans.memory_pass(run),
        "run_s": [1.0],
        "setup_s": [0.2],
    }
    bench = SimpleNamespace(record=lambda label, problems: None)
    metrics = harness.layer_metrics(bench, samples)
    assert sorted(metrics) == sorted(names("per_layer"))
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == units

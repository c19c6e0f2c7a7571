"""Measurement loop, metrics and summaries behind run.py.

Imports leadalloc at import time, so run.py puts the checkout's ``src`` on
``sys.path`` before importing this module.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import gen
import spans
from leadalloc import cli, panel

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_ROOT = BENCH_DIR / "out"
SPAWN = BENCH_DIR / "spawn.py"

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
MIN_SPAN_COVERAGE = 0.95
# what the `leadalloc` console script runs
CLI_ENTRY = "import sys; from leadalloc.cli import main; sys.exit(main())"

TIMED_STAGES = (
    "panel.parse", "panel.validate", "panel.write",
    "normalize.normalize", "normalize.forecast", "normalize.write",
    "cluster.cluster", "cluster.write",
    "allocate.shares", "allocate.search", "allocate.write",
    "evaluate.evaluate", "evaluate.write",
)
COUNT_UNITS = {
    "cluster.dist_bytes_computed": "bytes",
    "allocate.trace_bytes": "bytes",
}


def run_child(args: list[str], env: dict, log_dir: Path) -> tuple[float, float, int]:
    """Run one Python child to completion: (wall seconds, peak RSS in MB, exit code).

    The child is started by spawn.py, so its peak RSS is its own and not the
    size of this process.
    """
    result = log_dir / "child.json"
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        subprocess.run(
            [sys.executable, "-S", str(SPAWN), str(result), str(CHILD_TIMEOUT_S), sys.executable, *args],
            env=env, stdout=out, stderr=err, check=True, timeout=CHILD_TIMEOUT_S + 30,
        )
    child = json.loads(result.read_text(encoding="utf-8"))
    return child["seconds"], child["maxrss_kb"] / 1024.0, child["exit_code"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def host_facts() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Bench:
    """One invocation: a workload's input, its runs, and their checks."""

    def __init__(self, workload: gen.Workload, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.work = OUT_ROOT / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.input_csv = self.work / "panel.csv"
        self.cells = gen.write_panel_csv(workload.panel, seed, self.input_csv)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.data = panel.parse_panel(self.input_csv)
        self.constraints = cli.build_config(cli.build_parser().parse_args(self.argv(self.work))).constraints
        golden = check.load_golden().get(workload.name)
        self.golden = golden if golden is not None and golden["seed"] == seed else None
        self.reference_digests: dict[str, str] | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def argv(self, out: Path) -> list[str]:
        return ["run", "--input", str(self.input_csv), "--out", str(out), *self.workload.flags]

    def setup_sample(self) -> float:
        seconds, _, code = run_child(["-c", "import leadalloc.cli"], self.env, self.work)
        if code != 0:
            raise RuntimeError(f"import leadalloc.cli exited {code}")
        return seconds

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def check_outputs(self, out: Path) -> list[str]:
        """Problems with one run's artifacts; an empty list means they pass."""
        problems = check.check_artifacts(out, self.data, self.constraints)
        digests = check.artifact_digests(out)
        if self.reference_digests is None:
            self.reference_digests = digests
        elif digests != self.reference_digests:
            changed = sorted(
                name for name in set(digests) | set(self.reference_digests)
                if digests.get(name) != self.reference_digests.get(name)
            )
            problems.append(f"artifacts differ from the first run: {changed}")
        if self.golden is not None:
            try:
                values = check.golden_values(out)
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"cannot read artifacts: {exc!r}")
            else:
                problems.extend(check.compare_golden(values, self.golden))
        return problems

    def cli_run(self, index: int) -> tuple[float, float]:
        out = self.work / f"cli{index}"
        seconds, rss_mb, code = run_child(["-c", CLI_ENTRY, *self.argv(out)], self.env, self.work)
        if code != 0:
            stderr = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            self.record(f"cli run {index}", [f"exit code {code}: {stderr.strip()[-300:]}"])
        else:
            self.record(f"cli run {index}", self.check_outputs(out))
        shutil.rmtree(out, ignore_errors=True)
        return seconds, rss_mb


def measure(bench: Bench, seconds: float) -> dict:
    """The closed loop: one pipeline at a time until ``seconds`` are used."""
    bench.setup_sample()  # warm-up: byte-compiles the sources once, untimed
    setup = [bench.setup_sample() for _ in range(SETUP_SAMPLES)]
    tracer = spans.Tracer()

    run_s, rss_mb, traced, iteration_s = [], [], [], []
    last_run = None
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start + statistics.median(iteration_s) <= seconds:
        began = time.perf_counter()
        setup.append(bench.setup_sample())
        t, rss = bench.cli_run(index)
        run_s.append(t)
        rss_mb.append(rss)
        if bench.trace:
            last_run = None  # hold one parsed panel at a time
            summary, last_run = traced_iteration(bench, tracer, index)
            if summary is not None:
                traced.append(summary)
        iteration_s.append(time.perf_counter() - began)
        index += 1
    tracer.write_jsonl(bench.work / "spans.jsonl")
    memory = None
    if last_run is not None:  # after the timed loop, so tracemalloc slows no timed stage
        memory = spans.memory_pass(last_run)
    return {"setup_s": setup, "run_s": run_s, "peak_rss_mb": rss_mb, "traced": traced, "memory": memory}


def traced_iteration(bench: Bench, tracer: spans.Tracer, index: int):
    """One in-process traced run: (per-stage seconds and counts, its results)."""
    label = f"traced run {index}"
    out = bench.work / f"traced{index}"
    run = spans.traced_main(bench.argv(out), tracer, index)
    if run.exit_code != 0:
        bench.record(label, [f"exit code {run.exit_code}: {run.stderr.strip()[-300:]}"])
        shutil.rmtree(out, ignore_errors=True)
        return None, None
    counts = spans.layer_counts(out, run)
    coverage = tracer.coverage(index)
    problems = bench.check_outputs(out)
    if coverage < MIN_SPAN_COVERAGE:
        problems.append(f"module calls cover {coverage:.3f} of the CLI run, below {MIN_SPAN_COVERAGE}")
    bench.record(label, problems)
    shutil.rmtree(out, ignore_errors=True)
    return {"stages": tracer.stage_seconds(index), "counts": counts, "coverage": coverage}, run


def end_to_end_metrics(bench: Bench, samples: dict) -> dict:
    run_s = statistics.median(samples["run_s"])
    return {
        "run_s": (run_s, "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
        "cells_per_s": (bench.cells / run_s, "1/s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
    }


def layer_metrics(bench: Bench, samples: dict) -> dict:
    traced = samples["traced"]
    if not traced:  # every traced run failed; the failures are already counted
        return {}
    counts = traced[0]["counts"]
    for later in traced[1:]:
        if later["counts"] != counts:
            bench.record("traced counts", [f"counts changed between runs: {counts} vs {later['counts']}"])
    metrics = {}
    for stage in TIMED_STAGES:
        metrics[f"{stage}_s"] = (statistics.median(t["stages"].get(stage, 0.0) for t in traced), "s")
    for name, value in counts.items():
        metrics[name] = (value, COUNT_UNITS.get(name, "count"))
    search_s = metrics["allocate.search_s"][0]
    evaluated = counts["allocate.points_evaluated"]
    metrics["allocate.points_per_s"] = (evaluated / search_s, "1/s")
    metrics["allocate.feasible_ratio"] = (counts["allocate.points_feasible"] / evaluated, "ratio")
    for name, value in (samples["memory"] or {}).items():
        metrics[name] = (value, "MB")
    traced_total = statistics.median(t["stages"][spans.ROOT_SPAN] for t in traced)
    # the untraced subprocess also pays interpreter start-up and the import,
    # which setup_s measures; what is left also holds process exit, so the
    # overhead can read below zero when spans cost less than that
    untraced = statistics.median(samples["run_s"]) - statistics.median(samples["setup_s"])
    metrics["traced_total_s"] = (traced_total, "s")
    metrics["trace_overhead_s"] = (traced_total - untraced, "s")
    metrics["span_coverage"] = (min(t["coverage"] for t in traced), "ratio")
    return metrics


def summary_lines(bench: Bench, samples: dict, metrics: dict) -> list[str]:
    lines = [f"workload {bench.workload.name} seed {bench.seed}: {bench.cells} cells, flags {list(bench.workload.flags)}"]
    for key in ("run_s", "setup_s", "peak_rss_mb"):
        q1, med, q3 = quartiles(samples[key])
        lines.append(f"  {key}: median {med:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(samples[key])})")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    lines.append(f"  fail_frac = {bench.failed}/{bench.attempted} = {bench.failed / bench.attempted:.4g}")
    if bench.golden is None:
        lines.append("  recorded values: none for this seed, not compared")
    else:
        lines.append(f"  recorded values for seed {bench.seed}: compared after every run")
    for problem in bench.problems[:20]:
        lines.append(f"  FAILED {problem}")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(gen.WORKLOADS[workload], seed, trace)
    samples = measure(bench, seconds)
    metrics = layer_metrics(bench, samples) if trace else end_to_end_metrics(bench, samples)
    for line in summary_lines(bench, samples, metrics):
        print(line)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host_facts(), "samples": {k: v for k, v in samples.items() if k != "traced"},
        "problems": bench.problems, **result,
    }
    (bench.work / "result.json").write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    return result

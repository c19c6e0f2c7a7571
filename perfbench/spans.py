"""In-process traced pipeline: spans around each call into a leadalloc module.

``traced_main`` runs the program's own ``leadalloc.cli.main`` in this
process. While it runs, the module names in ``leadalloc.cli`` are swapped
for stand-ins that open a span around every call cmd_run makes into
``panel``, ``normalize``, ``cluster``, ``allocate`` and ``evaluate``; the
sources are not changed. Spans stay in memory on the ``Tracer`` and are
written out once the benchmark ends.
"""

from __future__ import annotations

import functools
import io
import json
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

from leadalloc import allocate, cli, cluster, evaluate, normalize, panel

ROOT_SPAN = "pipeline"

# Fixed counter names for trace.csv reasons. The two free-text reasons of a
# lattice point whose scores cannot form a share vector both count as
# negative_score; the bare category names are accepted too, so reasons that
# become categories later keep the same counters.
REASON_COUNTERS = ("floor", "population_cap", "negative_delta", "negative_score")
NEGATIVE_SCORE_PREFIXES = ("negative share score at ", "non-positive score total at ")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, run_id: int):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            opened = self.spans[index]
            self.spans[index] = Span(name, opened.start, time.perf_counter(), parent, run_id)

    def inside(self, name: str, run_id: int) -> bool:
        """Whether the innermost open span is ``name`` of run ``run_id``."""
        if not self._open:
            return False
        innermost = self.spans[self._open[-1]]
        return innermost.name == name and innermost.run_id == run_id

    def stage_seconds(self, run_id: int) -> dict[str, float]:
        """Total seconds per span name within one run (names may repeat)."""
        totals: dict[str, float] = {}
        for s in self.spans:
            if s.run_id == run_id:
                totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start)
        return totals

    def coverage(self, run_id: int) -> float:
        """Share of the root span covered by its direct children."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.run_id == run_id]
        root_index, root = next((i, s) for i, s in spans if s.name == ROOT_SPAN)
        covered = sum(s.end - s.start for _, s in spans if s.parent == root_index)
        return covered / (root.end - root.start)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


# Span name of each call that cmd_run makes into a leadalloc module. A call
# not listed here still gets a span, named after the function itself, so it
# counts towards coverage and shows in spans.jsonl.
STAGE_OF_CALL = {
    "panel.parse_panel": "panel.parse",
    "panel.validate_panel": "panel.validate",
    "panel.write_validation_report": "panel.write",
    "normalize.normalize_panel": "normalize.normalize",
    "normalize.write_normalized": "normalize.write",
    "panel.NeighborhoodPanel.yearly_test_totals": "normalize.forecast",
    "normalize.forecast_total_tests": "normalize.forecast",
    "cluster.cluster_neighborhoods": "cluster.cluster",
    "cluster.write_assignment": "cluster.write",
    "allocate.compute_shares": "allocate.shares",
    "allocate.case_rates": "allocate.shares",
    "allocate.grid_search": "allocate.search",
    "allocate.write_plan": "allocate.write",
    "allocate.write_trace": "allocate.write",
    "evaluate.evaluate_plan": "evaluate.evaluate",
    "evaluate.write_report": "evaluate.write",
    "evaluate.format_report": "evaluate.write",
}
MODULES = {"panel": panel, "normalize": normalize, "cluster": cluster, "allocate": allocate, "evaluate": evaluate}
# reached through the panel object, not through a module, so patched on its class
METHOD = "panel.NeighborhoodPanel.yearly_test_totals"


@dataclass
class TracedRun:
    exit_code: int
    stderr: str
    # the last direct call of each function: (args, kwargs, result)
    calls: dict[str, tuple[tuple, dict, object]]

    def result(self, name: str):
        return self.call(name)[2]

    def call(self, name: str):
        if name not in self.calls:
            raise RuntimeError(f"the traced run made no call to {name}")
        return self.calls[name]


class _TracedModule:
    """Stands in for a leadalloc module in cli's namespace.

    Every public function fetched through it runs in a span; everything else
    (classes, constants) is the module's own. Calls between the modules
    themselves do not pass through here and carry no overhead.
    """

    def __init__(self, name: str, module, wrap):
        self._name, self._module, self._wrap = name, module, wrap

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if callable(value) and not isinstance(value, type) and not attr.startswith("_"):
            return self._wrap(f"{self._name}.{attr}", value)
        return value


@contextmanager
def instrumented(tracer: Tracer, run_id: int, calls: dict):
    """Put a span around each call that leadalloc.cli makes into a module."""

    def wrap(name, fn):
        stage = STAGE_OF_CALL.get(name, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a span only for calls made straight from the pipeline, so nested
            # calls (yearly_test_totals inside evaluate) are not counted twice
            if not tracer.inside(ROOT_SPAN, run_id):
                return fn(*args, **kwargs)
            with tracer.span(stage, run_id):
                result = fn(*args, **kwargs)
            calls[name] = (args, kwargs, result)
            return result

        return traced

    method = panel.NeighborhoodPanel.yearly_test_totals
    try:
        for name, module in MODULES.items():
            setattr(cli, name, _TracedModule(name, module, wrap))
        panel.NeighborhoodPanel.yearly_test_totals = wrap(METHOD, method)
        yield
    finally:
        for name, module in MODULES.items():
            setattr(cli, name, module)
        panel.NeighborhoodPanel.yearly_test_totals = method


def traced_main(argv: list[str], tracer: Tracer, run_id: int) -> TracedRun:
    """Run ``leadalloc.cli.main(argv)`` in this process under one root span.

    The root span holds the whole CLI call, parsing its arguments included;
    its direct children are the calls into the modules, so work that cmd_run
    does outside them lowers the coverage.
    """
    calls: dict = {}
    stdout, stderr = io.StringIO(), io.StringIO()
    with instrumented(tracer, run_id, calls), redirect_stdout(stdout), redirect_stderr(stderr):
        with tracer.span(ROOT_SPAN, run_id):
            code = cli.main(argv)
    return TracedRun(code, stderr.getvalue(), calls)


def reason_counter(reason: str) -> str:
    if reason in REASON_COUNTERS:
        return reason
    if reason.startswith(NEGATIVE_SCORE_PREFIXES):
        return "negative_score"
    raise ValueError(f"unknown trace reason {reason!r}")


def layer_counts(out_dir: Path, run: TracedRun) -> dict[str, int]:
    """Deterministic per-layer counts of one traced run."""
    data = run.result("panel.parse_panel")
    norm = run.result("normalize.normalize_panel")
    trace = run.result("allocate.grid_search").trace
    rejected = dict.fromkeys(REASON_COUNTERS, 0)
    feasible = 0
    for point in trace:
        if point.feasible:
            feasible += 1
        else:
            rejected[reason_counter(point.reason)] += 1
    trace_csv = out_dir / "trace.csv"
    n = len(norm.geo_ids)
    return {
        "panel.rows_parsed": len(data.records) + len(data.rejected),
        "panel.rows_rejected": len(data.rejected),
        "panel.gaps": len(data.gaps),
        "cluster.n_iter": run.result("cluster.cluster_neighborhoods").n_iter,
        # bytes of the (n, n, years) float64 difference array a dense pairwise
        # distance computation builds; a count from the sizes, not a measurement
        "cluster.dist_bytes_computed": n * n * len(norm.years) * 8,
        "allocate.points_evaluated": len(trace),
        "allocate.points_feasible": feasible,
        "allocate.rejected_negative_score": rejected["negative_score"],
        "allocate.rejected_floor": rejected["floor"],
        "allocate.rejected_population_cap": rejected["population_cap"],
        "allocate.trace_bytes": trace_csv.stat().st_size if trace_csv.exists() else 0,
    }


def peak_alloc_mb(fn, args, kwargs) -> float:
    """Peak traced Python and numpy allocation while ``fn(*args, **kwargs)`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def memory_pass(run: TracedRun) -> dict[str, float]:
    """Allocation peaks of the two memory-heavy stages, called again with the
    traced run's own arguments, outside any timing."""
    cluster_args, cluster_kwargs, _ = run.call("cluster.cluster_neighborhoods")
    search_args, search_kwargs, _ = run.call("allocate.grid_search")
    return {
        "cluster.peak_alloc_mb": peak_alloc_mb(cluster.cluster_neighborhoods, cluster_args, cluster_kwargs),
        "allocate.search_peak_alloc_mb": peak_alloc_mb(allocate.grid_search, search_args, search_kwargs),
    }

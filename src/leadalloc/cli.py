"""Command-line pipeline driver.

Subcommands mirror the pipeline stages: ingest, normalize, cluster,
optimize, evaluate, and run (all stages end to end). Stages read the raw
panel CSV from --input and write their artifacts into --out with fixed
names, so a later stage can pick up a previous stage's files for partial
reruns. Settings come from an optional flat JSON config file plus flags;
flags win over file values.

Artifacts, by stage:
  ingest     panel.csv (canonical layout), validation.json
  normalize  normalized.csv
  cluster    clusters.csv, clusters.json
  optimize   plan.csv, plan.json, trace.csv (with --emit-trace)
  evaluate   evaluation.json, evaluation.txt
  run        validation.json plus everything from normalize onward

Exit codes: 0 success, 1 data error, 2 configuration error, 3 infeasible
optimization. Errors name the stage that failed on stderr. Identical input
and configuration produce byte-identical artifacts; nothing in the pipeline
is randomized or time-stamped.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import allocate, cluster, evaluate, normalize, panel
from .errors import ConfigError, DataError, InfeasibleError, LeadAllocError

CONFIG_KEYS = frozenset(
    {
        "input",
        "out",
        "year",
        "window",
        "p1_range",
        "p2_range",
        "floor",
        "population_cap",
        "require_nonnegative_delta",
        "total_tests",
        "emit_trace",
        "k",
        "rate_window",
        "forecast_window",
    }
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for any pipeline stage.

    ``target_year`` of None means the latest panel year. ``rate_window``
    of None reuses ``window`` for the case-rate pooling; ``forecast_window``
    of None fits the test-total trend on every panel year.
    """

    input_path: Path
    output_dir: Path
    target_year: int | None = None
    window: int = allocate.DEFAULT_WINDOW
    grid: allocate.GridConfig = allocate.GridConfig()
    constraints: allocate.ConstraintConfig = allocate.ConstraintConfig()
    k: int = 5
    total_tests_override: int | None = None
    emit_trace: bool = False
    rate_window: int | None = None
    forecast_window: int | None = None

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError(f"window must be at least 1, got {self.window}")
        if self.rate_window is not None and self.rate_window < 1:
            raise ConfigError(f"rate_window must be at least 1, got {self.rate_window}")
        if self.k < 2:
            raise ConfigError(f"k must be at least 2, got {self.k}")
        if self.total_tests_override is not None and self.total_tests_override <= 0:
            raise ConfigError(
                f"total tests override must be positive, got {self.total_tests_override}"
            )


class _StageFailure(Exception):
    def __init__(self, stage: str, error: LeadAllocError):
        super().__init__(f"{stage}: {error}")
        self.stage = stage
        self.error = error


@contextmanager
def _stage(name: str):
    """Tag any pipeline error with the stage it came from."""
    try:
        yield
    except _StageFailure:
        raise
    except LeadAllocError as exc:
        raise _StageFailure(name, exc) from exc


def _exit_code(error: LeadAllocError) -> int:
    if isinstance(error, ConfigError):
        return 2
    if isinstance(error, InfeasibleError):
        return 3
    return 1


def _ensure_out(config: RunConfig) -> Path:
    config.output_dir.mkdir(parents=True, exist_ok=True)
    return config.output_dir


def _load_panel(config: RunConfig) -> panel.NeighborhoodPanel:
    with _stage("ingest"):
        return panel.parse_panel(config.input_path)


def _target_year(config: RunConfig, data: panel.NeighborhoodPanel) -> int:
    if config.target_year is not None:
        return config.target_year
    if not data.years:
        raise DataError("panel has no usable rows; cannot pick a target year")
    return data.years[-1]


def _normalized(config: RunConfig, data: panel.NeighborhoodPanel) -> normalize.NormalizedPanel:
    """Prefer a previously written normalized.csv; otherwise compute."""
    existing = config.output_dir / "normalized.csv"
    with _stage("normalize"):
        if existing.exists():
            return normalize.read_normalized(existing)
        return normalize.normalize_panel(data)


def _optimize(config: RunConfig, data: panel.NeighborhoodPanel):
    """Run the optimize stage in memory; returns (search result, rates)."""
    with _stage("optimize"):
        year = _target_year(config, data)
        shares = allocate.compute_shares(data, year, config.window)
        if config.total_tests_override is not None:
            total_tests = config.total_tests_override
        else:
            total_tests = normalize.forecast_total_tests(
                data.yearly_test_totals(), config.forecast_window
            )
        rate_window = config.window if config.rate_window is None else config.rate_window
        rates = allocate.case_rates(data, year, rate_window)
        result = allocate.grid_search(
            data, shares, total_tests, config.grid, config.constraints, rates=rates
        )
    return result, rates


def _write_plan_artifacts(config: RunConfig, result: allocate.SearchResult) -> None:
    out = _ensure_out(config)
    allocate.write_plan(result.plan, out / "plan.csv", out / "plan.json")
    if config.emit_trace:
        allocate.write_trace(result.trace, out / "trace.csv")


def cmd_ingest(config: RunConfig) -> None:
    data = _load_panel(config)
    with _stage("ingest"):
        violations = panel.validate_panel(data)
        out = _ensure_out(config)
        panel.write_panel(data, out / "panel.csv")
        panel.write_validation_report(data, violations, out / "validation.json")
    print(
        f"ingested {len(data.geo_ids)} neighborhoods x {len(data.years)} years "
        f"({len(data.rejected)} rejected rows, {len(violations)} violations)"
    )


def cmd_normalize(config: RunConfig) -> None:
    data = _load_panel(config)
    with _stage("normalize"):
        norm = normalize.normalize_panel(data)
        out = _ensure_out(config)
        normalize.write_normalized(norm, out / "normalized.csv")
    print(f"normalized {len(norm.values)} cells across {len(norm.years)} years")


def cmd_cluster(config: RunConfig) -> None:
    data = _load_panel(config)
    norm = _normalized(config, data)
    with _stage("cluster"):
        assignment = cluster.cluster_neighborhoods(norm, config.k)
        out = _ensure_out(config)
        cluster.write_assignment(assignment, out / "clusters.csv", out / "clusters.json")
    medoid_text = ", ".join(f"{label}={geo}" for label, geo in assignment.medoids.items())
    print(f"clustered into {config.k} profiles ({medoid_text})")


def cmd_optimize(config: RunConfig) -> None:
    data = _load_panel(config)
    result, _ = _optimize(config, data)
    _write_plan_artifacts(config, result)
    plan = result.plan
    print(
        f"best weights p1={plan.p1:g}, p2={plan.p2:g}: "
        f"projected case difference {plan.delta_cases:+.2f} at T={plan.total_tests}"
    )


def cmd_evaluate(config: RunConfig) -> None:
    data = _load_panel(config)
    plan_csv = config.output_dir / "plan.csv"
    plan_json = config.output_dir / "plan.json"
    if plan_csv.exists() and plan_json.exists():
        with _stage("evaluate"):
            plan = allocate.read_plan(plan_csv, plan_json)
            if plan.geo_ids != data.geo_ids:
                raise DataError(
                    f"{plan_csv} plans other neighborhoods than {config.input_path} holds; "
                    "rerun optimize on this panel"
                )
        with _stage("optimize"):
            rate_window = config.window if config.rate_window is None else config.rate_window
            rates = allocate.case_rates(data, plan.target_year, rate_window)
    else:
        result, rates = _optimize(config, data)
        _write_plan_artifacts(config, result)
        plan = result.plan

    clusters_csv = config.output_dir / "clusters.csv"
    clusters_json = config.output_dir / "clusters.json"
    if clusters_csv.exists() and clusters_json.exists():
        with _stage("cluster"):
            assignment = cluster.read_assignment(clusters_csv, clusters_json)
    else:
        norm = _normalized(config, data)
        with _stage("cluster"):
            assignment = cluster.cluster_neighborhoods(norm, config.k)
            out = _ensure_out(config)
            cluster.write_assignment(assignment, out / "clusters.csv", out / "clusters.json")

    with _stage("evaluate"):
        report = evaluate.evaluate_plan(plan, rates, assignment)
        out = _ensure_out(config)
        evaluate.write_report(report, out / "evaluation.json")
        (out / "evaluation.txt").write_text(evaluate.format_report(report), encoding="utf-8")
    if report.ztest is not None:
        print(
            f"case difference {report.delta_cases:+.2f}; "
            f"z={report.ztest.z:.4f}, p={report.ztest.p_value:.4g}"
        )
    else:
        print(f"case difference {report.delta_cases:+.2f}; z-test degenerate")


def cmd_run(config: RunConfig) -> None:
    data = _load_panel(config)
    with _stage("ingest"):
        violations = panel.validate_panel(data)
        out = _ensure_out(config)
        panel.write_validation_report(data, violations, out / "validation.json")

    with _stage("normalize"):
        norm = normalize.normalize_panel(data)
        normalize.write_normalized(norm, out / "normalized.csv")

    with _stage("cluster"):
        assignment = cluster.cluster_neighborhoods(norm, config.k)
        cluster.write_assignment(assignment, out / "clusters.csv", out / "clusters.json")

    result, rates = _optimize(config, data)
    _write_plan_artifacts(config, result)
    plan = result.plan

    with _stage("evaluate"):
        report = evaluate.evaluate_plan(plan, rates, assignment)
        evaluate.write_report(report, out / "evaluation.json")
        (out / "evaluation.txt").write_text(evaluate.format_report(report), encoding="utf-8")

    print(
        f"pipeline complete: p1={plan.p1:g}, p2={plan.p2:g}, "
        f"case difference {plan.delta_cases:+.2f}, artifacts in {out}"
    )


def _parse_range_text(text: str, key: str) -> tuple[tuple[float, float], float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{key} must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(part) for part in parts)
    except ValueError:
        raise ConfigError(f"{key} must be numeric lo:hi:step, got {text!r}") from None
    return (lo, hi), step


def _range_value(value, key: str) -> tuple[tuple[float, float], float]:
    if isinstance(value, str):
        return _parse_range_text(value, key)
    if isinstance(value, (list, tuple)) and len(value) == 3:
        try:
            lo, hi, step = (float(part) for part in value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must hold three numbers, got {value!r}") from None
        return (lo, hi), step
    raise ConfigError(f"{key} must be 'lo:hi:step' or [lo, hi, step], got {value!r}")


def _as_int(value, key: str) -> int:
    # int() would truncate 2.7 to 2 rather than reject it
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _as_float(value, key: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _as_bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold one flat JSON object")
    unknown = sorted(set(values) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file values and flags into a RunConfig; flags win."""
    file_values = _load_config_file(args.config) if args.config else {}

    def setting(key: str, flag_value):
        return flag_value if flag_value is not None else file_values.get(key)

    input_value = setting("input", args.input)
    if not input_value:
        raise ConfigError("an input CSV is required (--input or config key 'input')")
    out_value = setting("out", args.out)
    if not out_value:
        raise ConfigError("an output directory is required (--out or config key 'out')")

    p1_range, p2_range = allocate.DEFAULT_WEIGHT_RANGE, allocate.DEFAULT_WEIGHT_RANGE
    steps = []
    p1_value = setting("p1_range", args.p1_range)
    if p1_value is not None:
        p1_range, step = _range_value(p1_value, "p1_range")
        steps.append(step)
    p2_value = setting("p2_range", args.p2_range)
    if p2_value is not None:
        p2_range, step = _range_value(p2_value, "p2_range")
        steps.append(step)
    if len(steps) == 2 and steps[0] != steps[1]:
        raise ConfigError(
            f"p1_range and p2_range must share one step, got {steps[0]} and {steps[1]}"
        )
    grid = allocate.GridConfig(
        p1_range=p1_range,
        p2_range=p2_range,
        step=steps[0] if steps else allocate.DEFAULT_STEP,
    )

    floor_value = setting("floor", args.floor)
    if args.no_population_cap is not None:
        cap_flag = False
    elif "population_cap" in file_values:
        cap_flag = _as_bool(file_values["population_cap"], "population_cap")
    else:
        cap_flag = True
    nonneg_value = file_values.get("require_nonnegative_delta")
    constraints = allocate.ConstraintConfig(
        floor_fraction=allocate.DEFAULT_FLOOR_FRACTION
        if floor_value is None
        else _as_float(floor_value, "floor"),
        population_cap=cap_flag,
        require_nonnegative_delta=False
        if nonneg_value is None
        else _as_bool(nonneg_value, "require_nonnegative_delta"),
    )

    year_value = setting("year", args.year)
    window_value = setting("window", args.window)
    total_value = setting("total_tests", args.total_tests)
    k_value = setting("k", args.k)
    trace_value = setting("emit_trace", args.emit_trace)
    rate_window = file_values.get("rate_window")
    forecast_window = file_values.get("forecast_window")

    return RunConfig(
        input_path=Path(input_value),
        output_dir=Path(out_value),
        target_year=None if year_value is None else _as_int(year_value, "year"),
        window=allocate.DEFAULT_WINDOW if window_value is None else _as_int(window_value, "window"),
        grid=grid,
        constraints=constraints,
        k=5 if k_value is None else _as_int(k_value, "k"),
        total_tests_override=None if total_value is None else _as_int(total_value, "total_tests"),
        emit_trace=False if trace_value is None else _as_bool(trace_value, "emit_trace"),
        rate_window=None if rate_window is None else _as_int(rate_window, "rate_window"),
        forecast_window=None
        if forecast_window is None
        else _as_int(forecast_window, "forecast_window"),
    )


COMMANDS = (
    ("ingest", cmd_ingest, "parse and validate the panel CSV"),
    ("normalize", cmd_normalize, "mean-normalize rates year by year"),
    ("cluster", cmd_cluster, "group neighborhoods into risk profiles"),
    ("optimize", cmd_optimize, "search test-allocation weights"),
    ("evaluate", cmd_evaluate, "statistically summarize the chosen plan"),
    ("run", cmd_run, "run every stage end to end"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadalloc",
        description="Allocate blood-lead testing capacity across neighborhoods.",
    )
    # every subcommand takes the same options; argparse copies them from one
    # parent parser instead of building them once per subcommand
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", help="panel CSV path")
    shared.add_argument("--out", help="output directory for artifacts")
    shared.add_argument("--config", help="flat JSON config file; flags override it")
    shared.add_argument("--year", type=int, help="target year (default: latest in panel)")
    shared.add_argument("--window", type=int, help="trailing years pooled for case shares")
    shared.add_argument("--p1-range", dest="p1_range", help="testing-weight lattice, lo:hi:step")
    shared.add_argument("--p2-range", dest="p2_range", help="case-weight lattice, lo:hi:step")
    shared.add_argument("--floor", type=float, help="minimum share kept, as fraction of baseline")
    shared.add_argument(
        "--no-population-cap",
        dest="no_population_cap",
        action="store_true",
        default=None,
        help="drop the child-population ceiling on test counts",
    )
    shared.add_argument("--total-tests", dest="total_tests", type=int, help="override forecast T")
    shared.add_argument(
        "--emit-trace",
        dest="emit_trace",
        action="store_true",
        default=None,
        help="also write the full search trace CSV",
    )
    shared.add_argument("--k", type=int, help="cluster count (default 5)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in COMMANDS:
        cmd = sub.add_parser(name, help=help_text, parents=[shared])
        cmd.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
        args.func(config)
    except _StageFailure as failure:
        print(f"error at stage {failure.stage}: {failure.error}", file=sys.stderr)
        return _exit_code(failure.error)
    except LeadAllocError as exc:
        print(f"error at stage config: {exc}", file=sys.stderr)
        return _exit_code(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline driver.

Commands mirror the pipeline stages: ingest, normalize, cluster,
optimize, evaluate, and run (all stages end to end). Stages read the raw
panel CSV from --input and write their artifacts into --out with fixed
names, so a later stage can pick up a previous stage's files for partial
reruns. Settings come from an optional flat JSON config file plus flags;
flags win over file values and pass the same checks. Options may come
before or after the command.

Artifacts, by stage:
  ingest     panel.csv (canonical layout), validation.json
  normalize  normalized.csv
  cluster    clusters.csv, clusters.json
  optimize   plan.csv, plan.json, trace.csv (with --emit-trace; removed without)
  evaluate   evaluation.json, evaluation.txt
  run        validation.json plus everything from normalize onward

Exit codes: 0 success, 1 data error, 2 configuration error, 3 infeasible
optimization. Errors name the stage that failed on stderr. Identical input
and configuration produce byte-identical artifacts on every platform;
nothing in the pipeline is randomized or time-stamped. Each artifact is
written by its module's ``write_*`` through the writers in ``errors``,
never by this module.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, NamedTuple

from . import allocate, cluster, evaluate, normalize, panel
from .errors import ConfigError, DataError, InputFileError, LeadAllocError, reading


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for any pipeline stage.

    ``target_year`` of None means the latest panel year. ``rate_window``
    of None reuses ``window`` for the case-rate pooling; ``forecast_window``
    of None fits the test-total trend on every panel year.
    """

    input_path: Path
    output_dir: Path
    grid: allocate.GridConfig
    constraints: allocate.ConstraintConfig
    target_year: int | None
    window: int
    k: int
    total_tests_override: int | None
    emit_trace: bool
    rate_window: int | None
    forecast_window: int | None

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError(f"window must be at least 1, got {self.window}")
        if self.rate_window is not None and self.rate_window < 1:
            raise ConfigError(f"rate_window must be at least 1, got {self.rate_window}")
        if self.k < 2:
            raise ConfigError(f"k must be at least 2, got {self.k}")
        total = self.total_tests_override
        if total is not None and not 1 <= total <= allocate.MAX_TOTAL_TESTS:
            raise ConfigError(
                f"total_tests must be from 1 to 2**53 = {allocate.MAX_TOTAL_TESTS}, got {total}"
            )

    @property
    def case_rate_window(self) -> int:
        """Trailing years pooled for the case rates."""
        return self.window if self.rate_window is None else self.rate_window


@contextmanager
def _stage(name: str, config: RunConfig):
    """Tag any pipeline error with the stage it came from. An OSError, such
    as an artifact name taken by a directory, is a DataError naming the
    file, or the output directory when the error names no file."""
    try:
        try:
            yield
        except OSError as exc:
            where = exc.filename if exc.filename is not None else f"into {config.output_dir}"
            raise DataError(f"cannot write {where}: {exc.strerror}") from exc
    except LeadAllocError as exc:
        exc.stage = name
        raise


def _ensure_out(config: RunConfig) -> Path:
    config.output_dir.mkdir(parents=True, exist_ok=True)
    return config.output_dir


def _load_panel(config: RunConfig) -> panel.NeighborhoodPanel:
    with _stage("ingest", config):
        return panel.parse_panel(config.input_path)


def _target_year(config: RunConfig, data: panel.NeighborhoodPanel) -> int:
    if config.target_year is not None:
        return config.target_year
    if not data.years:
        raise DataError("panel has no usable rows; cannot pick a target year")
    return data.years[-1]


def _reused(config: RunConfig, data: panel.NeighborhoodPanel, reader, *names: str):
    """An earlier stage's files read back, or None when one of them is missing.

    Files that the reader refuses, or that were made from another panel, are
    a DataError naming them, which says to delete them to recompute.
    """
    paths = [config.output_dir / name for name in names]
    if not all(path.exists() for path in paths):
        return None
    try:
        value = reader(*paths)
    except InputFileError as exc:
        raise DataError(f"{exc}; delete it to recompute") from exc
    if tuple(value.geo_ids) != data.geo_ids:
        raise DataError(
            f"{paths[0]} holds other neighborhoods than {config.input_path}; "
            "delete it to recompute"
        )
    return value


def _validate(config: RunConfig, data: panel.NeighborhoodPanel) -> list:
    """Check the panel and write validation.json; returns the violations."""
    with _stage("ingest", config):
        violations = panel.validate_panel(data)
        out = _ensure_out(config)
        panel.write_validation_report(data, violations, out / "validation.json")
    return violations


def _normalize(config: RunConfig, data: panel.NeighborhoodPanel) -> normalize.NormalizedPanel:
    with _stage("normalize", config):
        norm = normalize.normalize_panel(data)
        normalize.write_normalized(norm, _ensure_out(config) / "normalized.csv")
    return norm


def _normalized(config: RunConfig, data: panel.NeighborhoodPanel) -> normalize.NormalizedPanel:
    """Prefer a previously written normalized.csv; otherwise compute."""
    with _stage("normalize", config):
        read = partial(normalize.read_normalized, years=data.years)
        norm = _reused(config, data, read, "normalized.csv")
        return normalize.normalize_panel(data) if norm is None else norm


def _cluster(config: RunConfig, norm: normalize.NormalizedPanel) -> cluster.ClusterAssignment:
    with _stage("cluster", config):
        assignment = cluster.cluster_neighborhoods(norm, config.k)
        out = _ensure_out(config)
        cluster.write_assignment(assignment, out / "clusters.csv", out / "clusters.json")
    return assignment


def _optimize(config: RunConfig, data: panel.NeighborhoodPanel) -> allocate.AllocationPlan:
    """Search the weights and write plan.* (and trace.csv); returns the plan."""
    with _stage("optimize", config):
        year = _target_year(config, data)
        shares = allocate.compute_shares(data, year, config.window)
        total_tests = config.total_tests_override
        if total_tests is None:
            total_tests = normalize.forecast_total_tests(
                data.yearly_test_totals(), config.forecast_window
            )
            if total_tests < 1:
                raise DataError(
                    f"the test-total trend forecasts {total_tests} tests, "
                    "which leaves nothing to allocate; set a budget with --total-tests"
                )
            if total_tests > allocate.MAX_TOTAL_TESTS:
                raise DataError(
                    f"the test-total trend forecasts {total_tests} tests, more than 2**53 = "
                    f"{allocate.MAX_TOTAL_TESTS}; set a budget with --total-tests"
                )
        rates = allocate.case_rates(data, year, config.case_rate_window)
        result = allocate.grid_search(
            data, shares, total_tests, config.grid, config.constraints, rates=rates
        )
        out = _ensure_out(config)
        allocate.write_plan(result.plan, out / "plan.csv", out / "plan.json")
        if config.emit_trace:
            allocate.write_trace(result.trace, out / "trace.csv")
        else:
            # an earlier run's trace would contradict the new plan
            (out / "trace.csv").unlink(missing_ok=True)
    return result.plan


def _evaluate(config: RunConfig, plan, assignment) -> dict:
    with _stage("evaluate", config):
        report = evaluate.evaluate_plan(plan, assignment)
        out = _ensure_out(config)
        evaluate.write_report(report, out / "evaluation.json", out / "evaluation.txt")
    return report


def cmd_ingest(config: RunConfig) -> None:
    data = _load_panel(config)
    violations = _validate(config, data)
    with _stage("ingest", config):
        panel.write_panel(data, config.output_dir / "panel.csv")
    print(
        f"ingested {len(data.geo_ids)} neighborhoods x {len(data.years)} years "
        f"({len(data.rejected)} rejected rows, {len(violations)} violations)"
    )


def cmd_normalize(config: RunConfig) -> None:
    norm = _normalize(config, _load_panel(config))
    print(f"normalized {int(norm.defined.sum())} cells across {len(norm.years)} years")


def cmd_cluster(config: RunConfig) -> None:
    data = _load_panel(config)
    assignment = _cluster(config, _normalized(config, data))
    medoid_text = ", ".join(f"{label}={geo}" for label, geo in assignment.medoids.items())
    print(f"clustered into {config.k} profiles ({medoid_text})")


def cmd_optimize(config: RunConfig) -> None:
    plan = _optimize(config, _load_panel(config))
    print(
        f"best weights p1={plan.p1:g}, p2={plan.p2:g}: "
        f"projected case difference {plan.delta_cases:+.2f} at T={plan.total_tests}"
    )


def cmd_evaluate(config: RunConfig) -> None:
    data = _load_panel(config)
    with _stage("evaluate", config):
        plan = _reused(config, data, allocate.read_plan, "plan.csv", "plan.json")
        if plan is not None and plan.target_year not in data.years:
            raise DataError(
                f"{config.output_dir / 'plan.json'} targets {plan.target_year}, which is not "
                f"a year of {config.input_path}; delete it to recompute"
            )
    if plan is None:
        plan = _optimize(config, data)
    with _stage("cluster", config):
        assignment = _reused(config, data, cluster.read_assignment, "clusters.csv", "clusters.json")
    if assignment is None:
        assignment = _cluster(config, _normalized(config, data))

    ztest = _evaluate(config, plan, assignment)["ztest"]
    if ztest is not None:
        print(f"case difference {plan.delta_cases:+.2f}; z={ztest['z']:.4f}, p={ztest['p_value']:.4g}")
    else:
        print(f"case difference {plan.delta_cases:+.2f}; z-test degenerate")


def cmd_run(config: RunConfig) -> None:
    data = _load_panel(config)
    _validate(config, data)
    assignment = _cluster(config, _normalize(config, data))
    plan = _optimize(config, data)
    _evaluate(config, plan, assignment)
    print(
        f"pipeline complete: p1={plan.p1:g}, p2={plan.p2:g}, "
        f"case difference {plan.delta_cases:+.2f}, artifacts in {config.output_dir}"
    )


def _as_path(value, key: str) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a path string, got {value!r}")
    if "\0" in value:  # no file name can hold one; open() would raise ValueError
        raise ConfigError(f"{key} must not hold a NUL character, got {value!r}")
    return Path(value)


def _as_dir(value, key: str) -> Path:
    """A path that neither is nor lies below a file."""
    path = _as_path(value, key)
    for part in (path, *path.parents):
        if part.exists() and not part.is_dir():
            raise ConfigError(f"{key} must name a directory, but {part} is not one")
    return path


def _as_range(value, key: str) -> tuple[tuple[float, float], float]:
    parts = value.split(":") if isinstance(value, str) else value
    if isinstance(parts, (list, tuple)) and len(parts) == 3:
        try:
            lo, hi, step = (float(part) for part in parts)
            return (lo, hi), step
        except (TypeError, ValueError):
            pass
    raise ConfigError(
        f"{key} must be three numbers, 'lo:hi:step' or [lo, hi, step], got {value!r}"
    )


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


class _Setting(NamedTuple):
    read: Callable[[object, str], object]  # checks a flag or config-file value
    default: object = None
    help: str | None = None  # flag help; a setting without it has no flag
    missing: str | None = None  # the error when a required setting is unset or empty


# Every setting, in the order build_config checks it. That is also the order
# of the fields the values fill: RunConfig's two paths, the two lattice
# ranges, ConstraintConfig's fields, then the rest of RunConfig's.
SETTINGS = {
    "input": _Setting(
        _as_path, None, "panel CSV path", "an input CSV is required (--input or config key 'input')"
    ),
    "out": _Setting(
        _as_dir,
        None,
        "output directory for artifacts",
        "an output directory is required (--out or config key 'out')",
    ),
    "p1_range": _Setting(_as_range, help="testing-weight lattice, lo:hi:step"),
    "p2_range": _Setting(_as_range, help="case-weight lattice, lo:hi:step"),
    "floor": _Setting(
        _as_float, allocate.DEFAULT_FLOOR_FRACTION, "minimum share kept, as fraction of baseline"
    ),
    "population_cap": _Setting(_as_bool, True, "drop the child-population ceiling on test counts"),
    "require_nonnegative_delta": _Setting(_as_bool, False),
    "year": _Setting(_as_int, help="target year (default: latest in panel)"),
    "window": _Setting(_as_int, allocate.DEFAULT_WINDOW, "trailing years pooled for case shares"),
    "k": _Setting(_as_int, 5, "cluster count (default 5)"),
    "total_tests": _Setting(_as_int, help="override forecast T"),
    "emit_trace": _Setting(_as_bool, False, "also write the full search trace CSV"),
    "rate_window": _Setting(_as_int),
    "forecast_window": _Setting(_as_int),
}


def _load_config_file(path: str) -> dict:
    with reading(path, "config file", ConfigError) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold one flat JSON object")
    unknown = sorted(set(values) - SETTINGS.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return values


def _grid(p1_range, p2_range) -> allocate.GridConfig:
    """The lattice from the two range settings, each ((lo, hi), step) or None."""
    steps = [given[1] for given in (p1_range, p2_range) if given is not None]
    if len(steps) == 2 and steps[0] != steps[1]:
        raise ConfigError(
            f"p1_range and p2_range must share one step, got {steps[0]} and {steps[1]}"
        )
    # a range left unset takes the default bounds and the other range's step
    default = (allocate.DEFAULT_WEIGHT_RANGE, steps[0] if steps else allocate.DEFAULT_STEP)
    (p1_bounds, step), (p2_bounds, _) = p1_range or default, p2_range or default
    return allocate.GridConfig(p1_bounds, p2_bounds, step)


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file values and flags into a RunConfig; flags win."""
    file_values = _load_config_file(args.config) if args.config else {}

    def read(key: str, setting: _Setting):
        value = getattr(args, key, None)
        if value is None:
            value = file_values.get(key)
        if setting.missing and not value:
            raise ConfigError(setting.missing)
        return setting.default if value is None else setting.read(value, key)

    # read lazily, so each setting is checked only after the ones before it
    values = (read(key, setting) for key, setting in SETTINGS.items())
    input_path, output_dir = next(values), next(values)
    grid = _grid(next(values), next(values))
    constraints = allocate.ConstraintConfig(*islice(values, 3))
    return RunConfig(input_path, output_dir, grid, constraints, *values)


COMMANDS = {
    "ingest": (cmd_ingest, "parse and validate the panel CSV"),
    "normalize": (cmd_normalize, "mean-normalize rates year by year"),
    "cluster": (cmd_cluster, "group neighborhoods into risk profiles"),
    "optimize": (cmd_optimize, "search test-allocation weights"),
    "evaluate": (cmd_evaluate, "statistically summarize the chosen plan"),
    "run": (cmd_run, "run every stage end to end"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadalloc",
        description="Allocate blood-lead testing capacity across neighborhoods.",
        formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument(
        "command",
        choices=COMMANDS,
        metavar="command",
        help="\n".join(f"{name:<10} {text}" for name, (_, text) in COMMANDS.items()),
    )
    parser.add_argument("--config", help="flat JSON config file; flags override it")
    for key, (read, default, help_text, _) in SETTINGS.items():
        name = key.replace("_", "-")
        if read is _as_bool and help_text:
            # a switch that turns the setting away from its default
            flag = f"--no-{name}" if default else f"--{name}"
            const = not default
            parser.add_argument(flag, dest=key, action="store_const", const=const, help=help_text)
        elif help_text:
            parser.add_argument(f"--{name}", dest=key, help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
        COMMANDS[args.command][0](config)
    except LeadAllocError as exc:
        print(f"error at stage {exc.stage}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())

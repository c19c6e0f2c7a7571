"""Command-line pipeline driver.

Commands mirror the pipeline stages: ingest, normalize, cluster,
optimize, evaluate, and run (all stages end to end). Every command reads
the raw panel CSV from --input and writes into --out with fixed names.
``STAGES`` is the table of the stages, and ``_stages`` the one driver that
runs them. A command computes its own stages and every stage they take
from the input panel, and writes each one's files; it reads no earlier
artifact back. Before it parses, it removes the files of each stage it
computes and of each stage that takes one of those, directly or through
another stage, and trace.csv with optimize, so no earlier run's file of
those stages is left beside what it writes. Settings come from an optional
flat JSON config file plus flags; flags win over file values and pass the
same checks. Options may come before or after the command.

Artifacts, by stage:
  ingest     validation.json, what the parse decided; the ingest command also
             writes panel.csv (canonical layout)
  normalize  normalized.csv
  cluster    clusters.csv, clusters.json
  optimize   plan.csv, plan.json, trace.csv (with --emit-trace)
  evaluate   evaluation.json, evaluation.txt
A command also writes the files of the stages it takes: cluster writes
normalized.csv, evaluate every file but validation.json, and run all.

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
from itertools import islice
from pathlib import Path
from typing import Callable, NamedTuple

from . import allocate, cluster, evaluate, normalize, panel
from .errors import ConfigError, DataError, LeadAllocError, reading


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
        if self.forecast_window is not None and self.forecast_window < 2:
            raise ConfigError(f"forecast_window must be at least 2, got {self.forecast_window}")
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


def _load_panel(config: RunConfig, *names: str) -> panel.NeighborhoodPanel:
    """The input panel, parsed after removing the files that computing the
    stages ``names`` would leave stale: those of each stage computed and of
    each stage that takes one of those, and trace.csv with optimize. A name
    taken by a directory or a device is left for its write."""
    computed = set(_computed(names))
    stale = [name for name in STAGES if computed.intersection(_computed([name]))]
    files = [file for name in stale for file in STAGES[name].files]
    if "optimize" in computed:
        files.append("trace.csv")
    with _stage("ingest", config):
        for file in files:
            if (config.output_dir / file).is_file():
                (config.output_dir / file).unlink()
        return panel.parse_panel(config.input_path)


def _target_year(config: RunConfig, data: panel.NeighborhoodPanel) -> int:
    if config.target_year is not None:
        return config.target_year
    if not data.years:
        raise DataError("panel has no usable rows; cannot pick a target year")
    return data.years[-1]


def _search(config: RunConfig, data: panel.NeighborhoodPanel) -> allocate.AllocationPlan:
    """The best plan on the lattice, for a budget forecast from the test
    totals up to the target year. The search also writes trace.csv with
    --emit-trace."""
    year = _target_year(config, data)
    shares = allocate.compute_shares(data, year, config.window)
    total_tests = config.total_tests_override
    if total_tests is None:
        totals = data.yearly_test_totals()[: data.column(year) + 1]
        total_tests = normalize.forecast_total_tests(totals, config.forecast_window)
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
    result = allocate.grid_search(data, shares, total_tests, config.grid, config.constraints, rates=rates)
    if config.emit_trace:
        config.output_dir.mkdir(parents=True, exist_ok=True)
        allocate.write_trace(result.trace, config.output_dir / "trace.csv")
    return result.plan


class Stage(NamedTuple):
    files: tuple[str, ...]  # written into the output directory
    takes: tuple[str, ...]  # the stages whose values compute takes, in its argument order
    compute: Callable  # (config, panel, *values taken) -> the stage's value
    write: Callable  # (panel, value, *paths of files)


# The stages in run order. A row looks its module up only when the stage
# runs, so a module swapped into this one after import is the one called.
STAGES = {
    "ingest": Stage(
        ("validation.json",), (),
        lambda config, data: panel.validate_panel(data),
        lambda data, violations, path: panel.write_validation_report(data, violations, path),
    ),
    "normalize": Stage(
        ("normalized.csv",), (),
        lambda config, data: normalize.normalize_panel(data),
        lambda data, norm, path: normalize.write_normalized(norm, path),
    ),
    "cluster": Stage(
        ("clusters.csv", "clusters.json"), ("normalize",),
        lambda config, data, norm: cluster.cluster_neighborhoods(norm, config.k),
        lambda data, assignment, *paths: cluster.write_assignment(assignment, *paths),
    ),
    "optimize": Stage(
        ("plan.csv", "plan.json"), (),
        _search,
        lambda data, plan, *paths: allocate.write_plan(plan, *paths),
    ),
    "evaluate": Stage(
        ("evaluation.json", "evaluation.txt"), ("optimize", "cluster"),
        lambda config, data, plan, assignment: evaluate.evaluate_plan(plan, assignment),
        lambda data, report, *paths: evaluate.write_report(report, *paths),
    ),
}


def _computed(names) -> list[str]:
    """The stages ``names`` and every stage they take, directly or through
    another stage, in table order."""
    taken = set(names)
    for name in reversed(STAGES):  # a stage takes only stages listed before it
        if name in taken:
            taken.update(STAGES[name].takes)
    return [name for name in STAGES if name in taken]


def _stages(config: RunConfig, data: panel.NeighborhoodPanel, *names: str):
    """Yield (name, value) for each stage in ``names`` and each stage they
    take, in table order, each computed from the panel and the values of
    the stages it takes, and its files written."""
    values = {}
    for name in _computed(names):
        stage = STAGES[name]
        with _stage(name, config):
            values[name] = stage.compute(config, data, *(values[upstream] for upstream in stage.takes))
            config.output_dir.mkdir(parents=True, exist_ok=True)
            stage.write(data, values[name], *(config.output_dir / file for file in stage.files))
        yield name, values[name]


def cmd_ingest(config: RunConfig) -> None:
    data = _load_panel(config, "ingest")
    violations = dict(_stages(config, data, "ingest"))["ingest"]
    with _stage("ingest", config):
        panel.write_panel(data, config.output_dir / "panel.csv")
    print(
        f"ingested {len(data.geo_ids)} neighborhoods x {len(data.years)} years "
        f"({len(data.rejected)} rejected rows, {len(violations)} violations)"
    )


def cmd_normalize(config: RunConfig) -> None:
    norm = dict(_stages(config, _load_panel(config, "normalize"), "normalize"))["normalize"]
    print(f"normalized {int(norm.defined.sum())} cells across {len(norm.years)} years")


def cmd_cluster(config: RunConfig) -> None:
    assignment = dict(_stages(config, _load_panel(config, "cluster"), "cluster"))["cluster"]
    medoid_text = ", ".join(f"{label}={geo}" for label, geo in assignment.medoids.items())
    print(f"clustered into {config.k} profiles ({medoid_text})")


def cmd_optimize(config: RunConfig) -> None:
    plan = dict(_stages(config, _load_panel(config, "optimize"), "optimize"))["optimize"]
    print(
        f"best weights p1={plan.p1:g}, p2={plan.p2:g}: "
        f"projected case difference {plan.delta_cases:+.2f} at T={plan.total_tests}"
    )


def cmd_evaluate(config: RunConfig) -> None:
    values = dict(_stages(config, _load_panel(config, "evaluate"), "evaluate"))
    plan, ztest = values["optimize"], values["evaluate"]["ztest"]
    test = "z-test degenerate" if ztest is None else f"z={ztest['z']:.4f}, p={ztest['p_value']:.4g}"
    print(f"case difference {plan.delta_cases:+.2f}; {test}")


def cmd_run(config: RunConfig) -> None:
    plan = dict(_stages(config, _load_panel(config, *STAGES), *STAGES))["optimize"]
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

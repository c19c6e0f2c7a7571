"""Test-allocation optimization: shares, objective, and grid search.

The candidate allocation blends two signals per neighborhood: its current
share of citywide tests (x) and its share of citywide detected cases over a
trailing window (y). For weights (p1, p2) the pre-normalization score is
``s_i = x_i * p1 + y_i * p2``; normalizing s to sum to 1 gives the candidate
testing shares. The objective is the projected change in detected cases at a
fixed citywide test budget T:

    delta_cases = T * sum_i( R_i * (candidate_share_i - baseline_share_i) )

where R_i is the neighborhood's cases-per-test rate over the window. The
weights are chosen by exhaustive search over a (p1, p2) lattice, skipping
combinations that produce a negative score anywhere (never clamping: a clamp
would quietly reshape the objective surface) and combinations whose plan
violates the fairness floor or the child-population cap.

Everything is deterministic: the lattice is enumerated in sorted order, equal
objectives resolve to the lexicographically smallest (p1, p2), and integer
test counts come from largest-remainder apportionment with index-order ties.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, InfeasibleError
from .panel import NeighborhoodPanel

DEFAULT_FLOOR_FRACTION = 0.25
DEFAULT_WINDOW = 3
DEFAULT_WEIGHT_RANGE = (-10.0, 10.0)
DEFAULT_STEP = 0.1


class ZeroCityTests(DataError):
    pass


class ZeroCityCases(DataError):
    pass


class InfeasibleWeights(InfeasibleError):
    pass


class ShareMismatch(DataError):
    pass


class NoFeasiblePoint(InfeasibleError):
    pass


@dataclass(frozen=True, eq=False)
class ShareVectors:
    """Baseline testing shares and trailing-window case shares, aligned.

    ``x`` is the share of citywide tests in the target year; ``y`` is the
    share of citywide cases pooled over ``window_years``. Both sum to 1.
    """

    geo_ids: tuple[int, ...]
    x: np.ndarray
    y: np.ndarray
    window_years: tuple[int, ...]
    target_year: int


@dataclass(frozen=True)
class ConstraintConfig:
    """Fairness and capacity constraints applied to every candidate plan.

    The floor keeps any neighborhood from dropping below a fraction of its
    current testing share; the population cap keeps allocated tests at or
    below the child population (testing every child is acceptable, exceeding
    them is not).
    """

    floor_fraction: float = DEFAULT_FLOOR_FRACTION
    population_cap: bool = True
    require_nonnegative_delta: bool = False

    def __post_init__(self):
        if not 0.0 <= self.floor_fraction <= 1.0:
            raise ConfigError(f"floor_fraction must be in [0, 1], got {self.floor_fraction}")


@dataclass(frozen=True)
class GridConfig:
    """Inclusive (p1, p2) lattice. Both endpoints are on the lattice when
    the range divides evenly by the step."""

    p1_range: tuple[float, float] = DEFAULT_WEIGHT_RANGE
    p2_range: tuple[float, float] = DEFAULT_WEIGHT_RANGE
    step: float = DEFAULT_STEP

    def __post_init__(self):
        for name, (lo, hi) in (("p1_range", self.p1_range), ("p2_range", self.p2_range)):
            if lo > hi:
                raise ConfigError(f"{name} has lo > hi: {lo} > {hi}")
        if self.step <= 0:
            raise ConfigError(f"step must be positive, got {self.step}")

    def p1_values(self) -> list[float]:
        return grid_values(*self.p1_range, self.step)

    def p2_values(self) -> list[float]:
        return grid_values(*self.p2_range, self.step)


def grid_values(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive lattice values, snapped to 12 decimals.

    The snap removes accumulated float error so canonical points such as
    (1, 0) land exactly on lattices like [-10, 10] step 0.1.
    """
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [round(lo + i * step, 12) for i in range(count)]


@dataclass(frozen=True, eq=False)
class AllocationPlan:
    geo_ids: tuple[int, ...]
    p1: float
    p2: float
    baseline_share: np.ndarray
    v2_share: np.ndarray
    v1_tests: np.ndarray
    v2_tests: np.ndarray
    total_tests: int
    target_year: int
    projected_cases_v1: float
    projected_cases_v2: float
    delta_cases: float


@dataclass(frozen=True)
class TracePoint:
    p1: float
    p2: float
    delta_cases: float | None
    feasible: bool
    reason: str | None


@dataclass(frozen=True, eq=False)
class SearchResult:
    plan: AllocationPlan
    trace: tuple[TracePoint, ...]


def compute_shares(panel: NeighborhoodPanel, target_year: int, window: int = DEFAULT_WINDOW) -> ShareVectors:
    """Baseline testing shares at the target year and case shares over the
    trailing window ending at it.

    Cells absent from the panel contribute zero tests and zero cases; they
    are already on the panel's gap registry.
    """
    window_years = _window_years(panel, target_year, window)
    geo_ids = panel.geo_ids
    tests = np.array(
        [_cell(panel, g, target_year, "tests") for g in geo_ids], dtype=float
    )
    cases = np.array(
        [
            sum(_cell(panel, g, y, "cases_5plus") for y in window_years)
            for g in geo_ids
        ],
        dtype=float,
    )
    total_tests = float(np.sum(tests))
    if total_tests <= 0:
        raise ZeroCityTests(f"no tests recorded citywide in {target_year}")
    total_cases = float(np.sum(cases))
    if total_cases <= 0:
        raise ZeroCityCases(f"no cases recorded citywide over {list(window_years)}")
    return ShareVectors(
        geo_ids=geo_ids,
        x=tests / total_tests,
        y=cases / total_cases,
        window_years=window_years,
        target_year=target_year,
    )


def _window_years(panel: NeighborhoodPanel, target_year: int, window: int) -> tuple[int, ...]:
    """The trailing window ending at the target year; every year must be in the panel."""
    if window < 1:
        raise ConfigError(f"window must be at least 1, got {window}")
    window_years = tuple(range(target_year - window + 1, target_year + 1))
    missing_years = [y for y in window_years if y not in panel.years]
    if missing_years:
        raise ConfigError(
            f"target year {target_year} with window {window} needs panel years "
            f"{list(window_years)}; missing {missing_years}"
        )
    return window_years


def _cell(panel: NeighborhoodPanel, geo: int, year: int, fieldname: str) -> int:
    rec = panel.record(geo, year)
    return 0 if rec is None else getattr(rec, fieldname)


def case_rates(panel: NeighborhoodPanel, target_year: int, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Cases-per-test rate per neighborhood, pooled over the trailing window.

    A neighborhood with zero pooled tests gets rate 0: with no testing
    evidence in the window there is no measured detection rate to project.
    A window reaching years outside the panel raises ConfigError, as in
    ``compute_shares``.
    """
    window_years = _window_years(panel, target_year, window)
    rates = []
    for geo in panel.geo_ids:
        tests = sum(_cell(panel, geo, y, "tests") for y in window_years)
        cases = sum(_cell(panel, geo, y, "cases_5plus") for y in window_years)
        rates.append(cases / tests if tests > 0 else 0.0)
    return np.array(rates, dtype=float)


def v2_share(shares: ShareVectors, p1: float, p2: float) -> np.ndarray:
    """Candidate share vector for weights (p1, p2).

    Contractually exact identities: (p1>0, p2=0) returns x itself and
    (p1=0, p2>0) returns y itself, bit for bit, so the baseline point of the
    grid reproduces the current allocation with delta exactly zero. Negative
    per-neighborhood scores make the combination infeasible; they are never
    clamped.
    """
    x, y = shares.x, shares.y
    if p2 == 0.0 and p1 > 0.0:
        return x.copy()
    if p1 == 0.0 and p2 > 0.0:
        return y.copy()
    s = x * p1 + y * p2
    if bool(np.any(s < 0.0)):
        raise InfeasibleWeights(f"negative share score at (p1={p1}, p2={p2})")
    total = float(np.sum(s))
    if total <= 0.0:
        raise InfeasibleWeights(f"non-positive score total at (p1={p1}, p2={p2})")
    return s / total


def case_difference(total_tests: float, rates, rho1, rho2) -> float:
    """Projected change in detected cases moving shares rho1 -> rho2 at a
    fixed test budget."""
    rates = np.asarray(rates, dtype=float)
    rho1 = np.asarray(rho1, dtype=float)
    rho2 = np.asarray(rho2, dtype=float)
    if not (rates.shape == rho1.shape == rho2.shape):
        raise ShareMismatch(
            f"misaligned vectors: rates {rates.shape}, rho1 {rho1.shape}, rho2 {rho2.shape}"
        )
    for name, rho in (("rho1", rho1), ("rho2", rho2)):
        if abs(float(np.sum(rho)) - 1.0) > 1e-6:
            raise ShareMismatch(f"{name} does not sum to 1")
    return float(total_tests * np.sum(rates * (rho2 - rho1)))


def finalize_tests(share, total_tests: int) -> np.ndarray:
    """Integer test counts by largest-remainder apportionment.

    Floors each share*T, then hands the leftover units to the largest
    fractional parts; remainder ties go to the smaller index (shares are in
    geo_id order, so that is the smaller geo_id). The result sums to T
    exactly and each entry is within one test of its exact share.
    """
    share = np.asarray(share, dtype=float)
    if total_tests < 0:
        raise ValueError("total_tests must be non-negative")
    raw = share * float(total_tests)
    base = np.floor(raw)
    remainder = int(total_tests - np.sum(base))
    counts = base.astype(np.int64)
    if remainder > 0:
        order = np.argsort(-(raw - base), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def population_vector(panel: NeighborhoodPanel, geo_ids, year: int) -> np.ndarray:
    """Child population per geo at a year; unknown cells are uncapped."""
    pop = []
    for geo in geo_ids:
        rec = panel.record(geo, year)
        pop.append(float(rec.child_population) if rec is not None else math.inf)
    return np.array(pop, dtype=float)


@dataclass(frozen=True)
class ConstraintViolation:
    kind: str  # "floor", "population_cap", or "negative_delta"
    geo_id: int | None
    message: str


def _violations(share, tests, delta, floor, population, config: ConstraintConfig):
    """Yield ``(kind, index)`` for every violated constraint, in precedence
    order: each floor breach, then each population-cap breach, then a
    negative delta (index None).

    This is the one definition of a feasible plan. ``floor`` holds each
    neighborhood's least allowed share. ``tests`` is a callable returning
    the plan's test counts; it runs only when the generator gets
    past the floor, so a caller that stops at the first violation never
    apportions a candidate the floor already rejects. A share exactly at
    its floor and a test count exactly at the child population are both
    feasible.
    """
    for i in np.flatnonzero(share < floor):
        yield "floor", i
    if config.population_cap:
        for i in np.flatnonzero(tests() > population):
            yield "population_cap", i
    if config.require_nonnegative_delta and delta < 0.0:
        yield "negative_delta", None


def _first_violation(share, total_tests, delta, floor, population, config) -> str | None:
    """Kind of the first violation of a search candidate, None if feasible.

    The same verdict as ``check_constraints(...)[0].kind``, without building
    messages, and without apportioning when the floor already fails.
    """
    first = next(
        _violations(
            share, lambda: finalize_tests(share, total_tests), delta, floor, population, config
        ),
        None,
    )
    return None if first is None else first[0]


def check_constraints(
    plan: AllocationPlan,
    panel: NeighborhoodPanel,
    config: ConstraintConfig,
) -> list[ConstraintViolation]:
    """All constraint violations for a plan; empty list means feasible.

    Boundary behavior: a share exactly at its floor and a test count exactly
    at the child population are both feasible.
    """
    pop = population_vector(panel, plan.geo_ids, plan.target_year)
    floor = config.floor_fraction * plan.baseline_share
    out: list[ConstraintViolation] = []
    for kind, i in _violations(
        plan.v2_share, lambda: plan.v2_tests, plan.delta_cases, floor, pop, config
    ):
        if kind == "floor":
            message = f"share {plan.v2_share[i]!r} below floor {floor[i]!r}"
        elif kind == "population_cap":
            message = f"{int(plan.v2_tests[i])} tests exceed population {int(pop[i])}"
        else:
            message = f"delta_cases {plan.delta_cases!r} < 0"
        out.append(ConstraintViolation(kind, None if i is None else plan.geo_ids[i], message))
    return out


def build_plan(
    shares: ShareVectors,
    rates: np.ndarray,
    total_tests: int,
    p1: float,
    p2: float,
) -> AllocationPlan:
    """Assemble the full plan for one (p1, p2) combination."""
    candidate = v2_share(shares, p1, p2)
    v1_tests = finalize_tests(shares.x, total_tests)
    v2_tests = finalize_tests(candidate, total_tests)
    delta = case_difference(total_tests, rates, shares.x, candidate)
    projected_v1 = float(total_tests * np.sum(rates * shares.x))
    projected_v2 = float(total_tests * np.sum(rates * candidate))
    return AllocationPlan(
        geo_ids=shares.geo_ids,
        p1=p1,
        p2=p2,
        baseline_share=shares.x,
        v2_share=candidate,
        v1_tests=v1_tests,
        v2_tests=v2_tests,
        total_tests=total_tests,
        target_year=shares.target_year,
        projected_cases_v1=projected_v1,
        projected_cases_v2=projected_v2,
        delta_cases=delta,
    )


def grid_search(
    panel: NeighborhoodPanel,
    shares: ShareVectors,
    total_tests: int,
    grid: GridConfig = GridConfig(),
    constraints: ConstraintConfig = ConstraintConfig(),
    rates: np.ndarray | None = None,
) -> SearchResult:
    """Exhaustively evaluate the weight lattice and return the best plan.

    Every (p1, p2) combination is scored; infeasible weight combinations and
    constraint-violating plans are recorded in the trace and skipped. The
    winner maximizes delta_cases, with exact ties resolved to the smallest
    (p1, p2) in lexicographic order. When (1, 0) is on the lattice and
    feasible the winner's delta_cases is never negative, because that point
    reproduces the baseline at delta exactly 0.
    """
    if rates is None:
        rates = case_rates(panel, shares.target_year, len(shares.window_years))
    population = population_vector(panel, shares.geo_ids, shares.target_year)
    floor = constraints.floor_fraction * shares.x
    p1_values = grid.p1_values()
    p2_values = grid.p2_values()

    trace: list[TracePoint] = []
    best: tuple[float, float, float] | None = None  # (delta, p1, p2)
    for p1 in p1_values:
        for p2 in p2_values:
            try:
                candidate = v2_share(shares, p1, p2)
            except InfeasibleWeights as exc:
                trace.append(TracePoint(p1, p2, None, False, str(exc)))
                continue
            delta = case_difference(total_tests, rates, shares.x, candidate)
            kind = _first_violation(candidate, total_tests, delta, floor, population, constraints)
            if kind is not None:
                trace.append(TracePoint(p1, p2, delta, False, kind))
                continue
            trace.append(TracePoint(p1, p2, delta, True, None))
            if best is None or delta > best[0]:
                best = (delta, p1, p2)

    if best is None:
        raise NoFeasiblePoint(
            f"no feasible (p1, p2) on the {len(p1_values)}x{len(p2_values)} lattice"
        )
    plan = build_plan(shares, rates, total_tests, best[1], best[2])
    return SearchResult(plan=plan, trace=tuple(trace))


def write_plan(plan: AllocationPlan, csv_path: str | Path, json_path: str | Path) -> None:
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["geo_id", "baseline_share", "v2_share", "v1_tests", "v2_tests", "pct_of_former"]
        )
        for i, geo in enumerate(plan.geo_ids):
            v1 = int(plan.v1_tests[i])
            v2 = int(plan.v2_tests[i])
            pct = repr(100.0 * v2 / v1) if v1 > 0 else ""
            writer.writerow(
                [geo, repr(float(plan.baseline_share[i])), repr(float(plan.v2_share[i])), v1, v2, pct]
            )
    doc = {
        "p1": plan.p1,
        "p2": plan.p2,
        "total_tests": plan.total_tests,
        "target_year": plan.target_year,
        "projected_cases_v1": plan.projected_cases_v1,
        "projected_cases_v2": plan.projected_cases_v2,
        "delta_cases": plan.delta_cases,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_plan(csv_path: str | Path, json_path: str | Path) -> AllocationPlan:
    geo_ids, baseline, candidate, v1_tests, v2_tests = [], [], [], [], []
    with open(csv_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            geo_ids.append(int(row["geo_id"]))
            baseline.append(float(row["baseline_share"]))
            candidate.append(float(row["v2_share"]))
            v1_tests.append(int(row["v1_tests"]))
            v2_tests.append(int(row["v2_tests"]))
    with open(json_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return AllocationPlan(
        geo_ids=tuple(geo_ids),
        p1=float(doc["p1"]),
        p2=float(doc["p2"]),
        baseline_share=np.array(baseline, dtype=float),
        v2_share=np.array(candidate, dtype=float),
        v1_tests=np.array(v1_tests, dtype=np.int64),
        v2_tests=np.array(v2_tests, dtype=np.int64),
        total_tests=int(doc["total_tests"]),
        target_year=int(doc["target_year"]),
        projected_cases_v1=float(doc["projected_cases_v1"]),
        projected_cases_v2=float(doc["projected_cases_v2"]),
        delta_cases=float(doc["delta_cases"]),
    )


def write_trace(trace, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p1", "p2", "delta_cases", "feasible", "reason"])
        for point in trace:
            writer.writerow(
                [
                    repr(point.p1),
                    repr(point.p2),
                    "" if point.delta_cases is None else repr(point.delta_cases),
                    int(point.feasible),
                    point.reason or "",
                ]
            )

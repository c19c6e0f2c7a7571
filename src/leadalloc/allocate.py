"""Test-allocation optimization: shares, objective, and grid search.

The candidate allocation blends two signals per neighborhood: its current
share of citywide tests (x) and its share of citywide detected cases over a
trailing window (y). For weights (p1, p2) the pre-normalization score is
``s_i = x_i * p1 + y_i * p2``; normalizing s to sum to 1 gives the candidate
testing shares. The objective is the projected change in detected cases at a
fixed citywide test budget T:

    delta_cases = T * sum_i( R_i * (candidate_share_i - baseline_share_i) )

where R_i is the neighborhood's cases-per-test rate over the window. The
weights are chosen by a search over a (p1, p2) lattice that fills two arrays
of the lattice's shape, a verdict and a delta per point, and reads the
winner and the trace from them. It rejects combinations that produce a
negative score anywhere (never clamping: a clamp would quietly reshape the
objective surface) and combinations whose plan violates the fairness floor
or the child-population cap. The negative-score verdicts need no scoring: x
and y are non-negative, so every score is non-decreasing in p1 and in p2,
bit for bit, and those points form a staircase in the corner of small
weights that one walk along its edge finds exactly.

Everything is deterministic: the lattice is enumerated in sorted order, equal
objectives resolve to the lexicographically smallest (p1, p2), and integer
test counts come from largest-remainder apportionment with index-order ties.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError, DataError, InfeasibleError, InputFileError, integer, number, reading, write_json, write_rows,
    write_text,
)
from .panel import NeighborhoodPanel

DEFAULT_FLOOR_FRACTION = 0.25
DEFAULT_WINDOW = 3
DEFAULT_WEIGHT_RANGE = (-10.0, 10.0)
DEFAULT_STEP = 0.1
# the search scores every lattice point, so a finer or wider lattice than
# this is refused before any of it is built
MAX_LATTICE_POINTS = 10**7
# tests are apportioned through float64, which holds every integer only up
# to 2**53, so a larger budget would not come back whole
MAX_TOTAL_TESTS = 2**53

# float64 elements per (points, geos) block of the lattice search: enough
# points per block to amortize numpy's per-call cost, few enough that the
# block's temporaries stay small next to the process
_BLOCK_ELEMENTS = 2**14

# verdict codes of one lattice point, in precedence order, their trace
# reasons and their names in the count of rejections when no point is
# feasible; a point with one of the two score verdicts has no delta, and its
# reason names its weights
_FEASIBLE, _NEGATIVE_SCORE, _NONPOSITIVE_TOTAL, _FLOOR, _POPULATION_CAP, _NEGATIVE_DELTA = range(6)
_REASONS = (
    None,
    "negative share score at (p1={p1}, p2={p2})",
    "non-positive score total at (p1={p1}, p2={p2})",
    "floor",
    "population_cap",
    "negative_delta",
)
_VERDICTS = (
    "feasible", "negative score", "non-positive score total", "floor", "population cap", "negative delta"
)
_SCORE_VERDICTS = (_NEGATIVE_SCORE, _NONPOSITIVE_TOTAL)


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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"{name} bounds must be finite, got {lo} and {hi}")
            if lo > hi:
                raise ConfigError(f"{name} has lo > hi: {lo} > {hi}")
        if not math.isfinite(self.step) or self.step <= 0:
            raise ConfigError(f"step must be positive and finite, got {self.step}")
        points = _axis_size(*self.p1_range, self.step) * _axis_size(*self.p2_range, self.step)
        if points > MAX_LATTICE_POINTS:
            raise ConfigError(
                f"the (p1, p2) lattice has {points:,} points, more than the "
                f"{MAX_LATTICE_POINTS:,} allowed; use a coarser step or narrower ranges"
            )

    def p1_values(self) -> list[float]:
        return grid_values(*self.p1_range, self.step)

    def p2_values(self) -> list[float]:
        return grid_values(*self.p2_range, self.step)


def grid_values(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive lattice values, snapped to 12 decimals.

    The snap removes accumulated float error so canonical points such as
    (1, 0) land exactly on lattices like [-10, 10] step 0.1.
    """
    return [round(lo + i * step, 12) for i in range(_axis_size(lo, hi, step))]


def _axis_size(lo: float, hi: float, step: float) -> int | float:
    """How many values grid_values(lo, hi, step) returns; inf when
    (hi - lo) / step overflows a float."""
    count = (hi - lo) / step + 1e-9
    return math.floor(count) + 1 if math.isfinite(count) else math.inf


@dataclass(frozen=True, eq=False)
class AllocationPlan:
    """One chosen allocation. The per-neighborhood arrays follow ``geo_ids``
    and must each have one entry per neighborhood (DataError otherwise);
    ``rates`` are the cases-per-test rates the plan was chosen on."""

    geo_ids: tuple[int, ...]
    p1: float
    p2: float
    baseline_share: np.ndarray
    v2_share: np.ndarray
    v1_tests: np.ndarray
    v2_tests: np.ndarray
    rates: np.ndarray
    total_tests: int
    target_year: int
    projected_cases_v1: float
    projected_cases_v2: float
    delta_cases: float

    def __post_init__(self):
        for name in ("baseline_share", "v2_share", "v1_tests", "v2_tests", "rates"):
            size, geos = len(getattr(self, name)), len(self.geo_ids)
            if size != geos:
                raise DataError(f"{name} has {size} entries for a plan of {geos} neighborhoods")


@dataclass(frozen=True, slots=True)
class TracePoint:
    """One lattice point of the search and its verdict code; ``feasible``
    and ``reason`` word the code when read, so the trace holds no string
    per point."""

    p1: float
    p2: float
    delta_cases: float | None
    code: int

    @property
    def feasible(self) -> bool:
        return self.code == _FEASIBLE

    @property
    def reason(self) -> str | None:
        """The verdict's words; the two score reasons name the point's weights."""
        if self.code in _SCORE_VERDICTS:
            return _REASONS[self.code].format(p1=self.p1, p2=self.p2)
        return _REASONS[self.code]


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
    columns = _window_columns(panel, target_year, window)
    view = panel.view
    tests = view.tests[:, columns.stop - 1].astype(float)
    cases = view.cases_5plus[:, columns].sum(axis=1).astype(float)
    total_tests = float(np.sum(tests))
    if total_tests <= 0:
        raise DataError(f"no tests recorded citywide in {target_year}")
    total_cases = float(np.sum(cases))
    window_years = panel.years[columns]
    if total_cases <= 0:
        raise DataError(f"no cases recorded citywide over {list(window_years)}")
    return ShareVectors(
        geo_ids=panel.geo_ids,
        x=tests / total_tests,
        y=cases / total_cases,
        window_years=window_years,
        target_year=target_year,
    )


def _window_columns(panel: NeighborhoodPanel, target_year: int, window: int) -> slice:
    """Panel columns of the trailing window ending at the target year; every
    year of the window must be in the panel."""
    if window < 1:
        raise ConfigError(f"window must be at least 1, got {window}")
    window_years = tuple(range(target_year - window + 1, target_year + 1))
    missing_years = [y for y in window_years if y not in panel.years]
    if missing_years:
        raise ConfigError(
            f"target year {target_year} with window {window} needs panel years "
            f"{list(window_years)}; missing {missing_years}"
        )
    start = panel.years.index(window_years[0])
    return slice(start, start + window)


def case_rates(panel: NeighborhoodPanel, target_year: int, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Cases-per-test rate per neighborhood, pooled over the trailing window.

    A neighborhood with zero pooled tests gets rate 0: with no testing
    evidence in the window there is no measured detection rate to project.
    A window reaching years outside the panel raises ConfigError, as in
    ``compute_shares``.
    """
    columns = _window_columns(panel, target_year, window)
    tests = panel.view.tests[:, columns].sum(axis=1).astype(float)
    cases = panel.view.cases_5plus[:, columns].sum(axis=1).astype(float)
    return np.divide(cases, tests, out=np.zeros_like(tests), where=tests > 0)


def v2_share(shares: ShareVectors, p1: float, p2: float) -> np.ndarray:
    """Candidate share vector for weights (p1, p2).

    Contractually exact identities: (p1>0, p2=0) returns x itself and
    (p1=0, p2>0) returns y itself, bit for bit, so the baseline point of the
    grid reproduces the current allocation with delta exactly zero. Negative
    per-neighborhood scores make the combination infeasible; they are never
    clamped.
    """
    share, code = _candidate_shares(
        shares.x, shares.y, np.array([p1], dtype=float), np.array([p2], dtype=float)
    )
    if code[0] != _FEASIBLE:
        raise InfeasibleError(_REASONS[code[0]].format(p1=p1, p2=p2))
    return share[0]


def _candidate_shares(x, y, p1: np.ndarray, p2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate shares for the weight pairs (p1[k], p2[k]), one row each,
    with a verdict code per row: _FEASIBLE, _NEGATIVE_SCORE or
    _NONPOSITIVE_TOTAL. Rows with a score verdict keep their raw scores."""
    s = x * p1[:, None] + y * p2[:, None]
    on_x = (p2 == 0.0) & (p1 > 0.0)
    on_y = (p1 == 0.0) & (p2 > 0.0)
    s[on_x] = x
    s[on_y] = y
    total = np.sum(s, axis=1)
    code = np.zeros(p1.size, dtype=np.int8)
    code[total <= 0.0] = _NONPOSITIVE_TOTAL
    code[np.any(s < 0.0, axis=1)] = _NEGATIVE_SCORE
    divide = (code == _FEASIBLE) & ~(on_x | on_y)
    s[divide] /= total[divide, None]
    return s, code


def case_difference(total_tests: float, rates, rho1, rho2) -> float:
    """Projected change in detected cases moving shares rho1 -> rho2 at a
    fixed test budget."""
    rates = np.asarray(rates, dtype=float)
    rho1 = np.asarray(rho1, dtype=float)
    rho2 = np.asarray(rho2, dtype=float)
    if not (rates.shape == rho1.shape == rho2.shape):
        raise DataError(
            f"misaligned vectors: rates {rates.shape}, rho1 {rho1.shape}, rho2 {rho2.shape}"
        )
    for name, rho in (("rho1", rho1), ("rho2", rho2)):
        if abs(float(np.sum(rho)) - 1.0) > 1e-6:
            raise DataError(f"{name} does not sum to 1")
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
    return _apportion(share.reshape(1, -1), total_tests)[0]


def _apportion(share: np.ndarray, total_tests: int) -> np.ndarray:
    """``finalize_tests`` for each row of a (rows, geos) share block.

    A row with r leftover units bumps every fractional part above its r-th
    largest one, then as many entries equal to that value as are still
    needed, smallest index first: the order of a stable descending sort,
    without sorting indices row by row.
    """
    raw = share * float(total_tests)
    base = np.floor(raw)
    counts = base.astype(np.int64)
    n = share.shape[1]
    remainder = np.minimum(total_tests - np.sum(base, axis=1), n).astype(np.int64)
    rows = np.flatnonzero(remainder > 0)
    if rows.size:
        frac = raw[rows] - base[rows]
        remainder = remainder[rows]
        cut = np.sort(frac, axis=1)[np.arange(rows.size), n - remainder][:, None]
        above = frac > cut
        ties = frac == cut
        needed = remainder - np.sum(above, axis=1)
        counts[rows] += above | (ties & (np.cumsum(ties, axis=1) <= needed[:, None]))
    return counts


def population_vector(panel: NeighborhoodPanel, year: int) -> np.ndarray:
    """Child population per panel geo at a panel year; absent cells are uncapped."""
    column = panel.column(year)
    view = panel.view
    return np.where(view.present[:, column], view.child_population[:, column], math.inf)


@dataclass(frozen=True)
class ConstraintViolation:
    kind: str  # "floor", "population_cap", or "negative_delta"
    geo_id: int | None
    message: str


def check_constraints(
    plan: AllocationPlan,
    panel: NeighborhoodPanel,
    config: ConstraintConfig,
) -> list[ConstraintViolation]:
    """All constraint violations for a plan; empty list means feasible.

    Violations are listed in the search's precedence order: each floor
    breach, then each population-cap breach, then a negative delta.
    Boundary behavior: a share exactly at its floor and a test count exactly
    at the child population are both feasible.
    """
    if plan.geo_ids != panel.geo_ids:
        raise DataError("the plan covers other neighborhoods than the panel")
    pop = population_vector(panel, plan.target_year)
    floor = config.floor_fraction * plan.baseline_share
    out: list[ConstraintViolation] = []
    for i in np.flatnonzero(plan.v2_share < floor):
        message = f"share {float(plan.v2_share[i])!r} below floor {float(floor[i])!r}"
        out.append(ConstraintViolation("floor", plan.geo_ids[i], message))
    if config.population_cap:
        for i in np.flatnonzero(plan.v2_tests > pop):
            message = f"{int(plan.v2_tests[i])} tests exceed population {int(pop[i])}"
            out.append(ConstraintViolation("population_cap", plan.geo_ids[i], message))
    if config.require_nonnegative_delta and plan.delta_cases < 0.0:
        message = f"delta_cases {plan.delta_cases!r} < 0"
        out.append(ConstraintViolation("negative_delta", None, message))
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
    return derive_plan(shares.geo_ids, p1, p2, shares.x, candidate, rates, total_tests, shares.target_year)


def derive_plan(
    geo_ids, p1: float, p2: float, baseline_share, v2_share, rates, total_tests: int, target_year: int
) -> AllocationPlan:
    """The plan of these shares, case rates and budget, with its test counts,
    projected cases and delta computed from them.

    The delta is ``case_difference``'s formula, bit for bit, without its
    checks: shares that do not sum to 1 give counts that do not sum to the
    budget, not an error.
    """
    return AllocationPlan(
        geo_ids=geo_ids,
        p1=p1,
        p2=p2,
        baseline_share=baseline_share,
        v2_share=v2_share,
        v1_tests=finalize_tests(baseline_share, total_tests),
        v2_tests=finalize_tests(v2_share, total_tests),
        rates=rates,
        total_tests=total_tests,
        target_year=target_year,
        projected_cases_v1=float(total_tests * np.sum(rates * baseline_share)),
        projected_cases_v2=float(total_tests * np.sum(rates * v2_share)),
        delta_cases=float(total_tests * np.sum(rates * (v2_share - baseline_share))),
    )


def grid_search(
    panel: NeighborhoodPanel,
    shares: ShareVectors,
    total_tests: int,
    grid: GridConfig = GridConfig(),
    constraints: ConstraintConfig = ConstraintConfig(),
    rates: np.ndarray | None = None,
) -> SearchResult:
    """Give every point of the weight lattice a verdict and return the best plan.

    Every (p1, p2) combination is in the trace, in p1-major order, with its
    verdict; infeasible weight combinations and constraint-violating plans
    are recorded there and skipped. The winner maximizes delta_cases, with
    exact ties resolved to the smallest (p1, p2) in lexicographic order.
    When (1, 0) is on the lattice and feasible the winner's delta_cases is
    never negative, because that point reproduces the baseline at delta
    exactly 0.

    The search fills a verdict code and a delta per point, in two arrays of
    the lattice's shape. The negative-score verdicts come from the staircase
    walk of ``_nonnegative_starts``, which is exact because the shares are
    finite and non-negative; shares that are not, and rates that are not
    finite, raise DataError. The other points are scored in blocks, each a
    2-D (points, geos) array, with the same element operations as scoring
    one point at a time. The winner is the first largest delta among the
    feasible points, and the trace is read from the arrays row by row, so
    both are the per-point ones bit for bit.
    """
    if rates is None:
        rates = case_rates(panel, shares.target_year, len(shares.window_years))
    # the shape and baseline-sum checks of every point's case_difference
    case_difference(total_tests, rates, shares.x, shares.x)
    if not np.all(np.isfinite(rates)):
        raise DataError("case rates hold a non-finite value")
    if shares.geo_ids != panel.geo_ids:
        raise DataError("the share vectors cover other neighborhoods than the panel")
    for name, share in (("x", shares.x), ("y", shares.y)):
        if not np.all(np.isfinite(share) & (share >= 0.0)):
            raise DataError(f"share vector {name} holds a negative or non-finite value")
    population = population_vector(panel, shares.target_year)
    floor = constraints.floor_fraction * shares.x
    p1_values = grid.p1_values()
    p2_values = grid.p2_values()
    p1_array = np.array(p1_values, dtype=float)
    p2_array = np.array(p2_values, dtype=float)
    n2 = len(p2_values)
    block = max(1, _BLOCK_ELEMENTS // max(1, shares.x.size))

    # one verdict and one delta per lattice point, in the lattice's (p1, p2)
    # shape; row a's points before p2_values[starts[a]] have a negative score
    starts = _nonnegative_starts(shares.x, shares.y, p1_array, p2_array)
    negative = np.arange(n2) < np.array(starts)[:, None]
    code = np.where(negative, _NEGATIVE_SCORE, _FEASIBLE).astype(np.int8)
    delta = np.zeros(code.shape)
    scored = np.flatnonzero(code == _FEASIBLE)
    for start in range(0, scored.size, block):
        k = scored[start : start + block]
        delta.flat[k], code.flat[k] = _evaluate_block(
            shares, rates, total_tests, p1_array[k // n2], p2_array[k % n2], floor, population, constraints
        )

    feasible = np.flatnonzero(code == _FEASIBLE)
    if not feasible.size:
        counts = np.bincount(code.ravel(), minlength=len(_VERDICTS)).tolist()
        rejected = ", ".join(f"{n} {name}" for name, n in zip(_VERDICTS, counts) if n)
        raise InfeasibleError(f"no feasible (p1, p2) on the {len(p1_values)}x{n2} lattice: {rejected}")
    # argmax keeps the first of equal deltas, the smallest (p1, p2)
    best = int(feasible[np.argmax(delta.flat[feasible])])
    plan = build_plan(shares, rates, total_tests, p1_values[best // n2], p2_values[best % n2])
    # the trace shares the lattice's float objects instead of one per point,
    # and turns one row of the arrays into Python lists at a time; a point
    # with a score verdict has no delta
    trace = tuple(
        TracePoint(p1, p2, None if c in _SCORE_VERDICTS else d, c)
        for p1, row_code, row_delta in zip(p1_values, code, delta)
        for p2, c, d in zip(p2_values, row_code.tolist(), row_delta.tolist())
    )
    return SearchResult(plan=plan, trace=trace)


def _nonnegative_starts(x, y, p1: np.ndarray, p2: np.ndarray) -> list[int]:
    """For each p1 value, the index of the first p2 value whose point has no
    negative score; len(p2) when every point of that row has one.

    With x and y finite and non-negative, each score x_i*p1 + y_i*p2 is
    non-decreasing in p1 and in p2 bit for bit: a product with a
    non-negative factor and a sum are both monotone under round-to-nearest,
    and signed zeros compare equal. Over sorted p1 and p2 values the points
    with some negative score are therefore a prefix of every row, and that
    prefix never grows as p1 does. One walk, p1 rising while the p2 index
    falls, finds every row's cutoff with at most len(p1) + len(p2) one-point
    calls of ``_candidate_shares``, the function that scores the blocks.
    """
    starts = []
    j = p2.size
    for a in range(p1.size):
        while j > 0:
            _, code = _candidate_shares(x, y, p1[a : a + 1], p2[j - 1 : j])
            if code[0] == _NEGATIVE_SCORE:
                break
            j -= 1
        starts.append(j)
    return starts


def _evaluate_block(shares, rates, total_tests, p1, p2, floor, population, constraints):
    """Delta and verdict code of each lattice point (p1[k], p2[k]) of a block.

    The checks run in precedence order, each on the rows still feasible:
    score, floor, population cap, negative delta. A share exactly at its
    floor and a count exactly at the child population are feasible. Rows
    with a score verdict get delta 0.
    """
    share, code = _candidate_shares(shares.x, shares.y, p1, p2)
    rows = np.flatnonzero(code == _FEASIBLE)
    share = share[rows]
    if np.any(np.abs(np.sum(share, axis=1) - 1.0) > 1e-6):
        raise DataError("rho2 does not sum to 1")
    delta = np.zeros(code.size)
    delta[rows] = total_tests * np.sum(rates * (share - shares.x), axis=1)
    floored = np.any(share < floor, axis=1)
    code[rows[floored]] = _FLOOR
    if constraints.population_cap:
        rows, share = rows[~floored], share[~floored]
        code[rows[_over_population(share, total_tests, population)]] = _POPULATION_CAP
    if constraints.require_nonnegative_delta:
        code[(code == _FEASIBLE) & (delta < 0.0)] = _NEGATIVE_DELTA
    return delta, code


def _over_population(share: np.ndarray, total_tests: int, population: np.ndarray) -> np.ndarray:
    """Rows of a share block whose apportioned counts exceed the population
    anywhere: ``np.any(_apportion(share, total_tests) > population, axis=1)``.

    Each apportioned count is its floored share or one more, so only rows
    where a floored share equals the population, and none is above it, are
    apportioned.
    """
    base = np.floor(share * float(total_tests))
    over = np.any(base > population, axis=1)
    unsure = np.flatnonzero(~over & np.any(base == population, axis=1))
    if unsure.size:
        over[unsure] = np.any(_apportion(share[unsure], total_tests) > population, axis=1)
    return over


def pct_of_former(plan: AllocationPlan) -> list[float | None]:
    """Chosen tests as a percentage of former tests, per neighborhood in plan
    order; None where there were no former tests and the ratio is undefined."""
    return [
        100.0 * v2 / v1 if v1 > 0 else None
        for v1, v2 in zip(plan.v1_tests.tolist(), plan.v2_tests.tolist())
    ]


def write_plan(plan: AllocationPlan, csv_path: str | Path, json_path: str | Path) -> None:
    kept = pct_of_former(plan)
    rows = (
        [geo, repr(float(plan.baseline_share[i])), repr(float(plan.v2_share[i])), int(plan.v1_tests[i]),
         int(plan.v2_tests[i]), "" if kept[i] is None else repr(kept[i]), repr(float(plan.rates[i]))]
        for i, geo in enumerate(plan.geo_ids)
    )
    header = ["geo_id", "baseline_share", "v2_share", "v1_tests", "v2_tests", "pct_of_former", "case_rate"]
    write_rows(csv_path, header, rows)
    doc = {
        "p1": plan.p1,
        "p2": plan.p2,
        "total_tests": plan.total_tests,
        "target_year": plan.target_year,
        "projected_cases_v1": plan.projected_cases_v1,
        "projected_cases_v2": plan.projected_cases_v2,
        "delta_cases": plan.delta_cases,
    }
    write_json(json_path, doc)


def read_plan(csv_path: str | Path, json_path: str | Path) -> AllocationPlan:
    """Read back plan.csv and plan.json; an InputFileError for a number that
    is not finite, a column of counts that does not sum to total_tests, a
    negative case rate, or case rates that do not project the baseline's
    projected_cases_v1."""
    geo_ids, baseline, candidate, v1_tests, v2_tests, rates = [], [], [], [], [], []
    with reading(csv_path, table=True) as rows:
        for row in rows:
            geo_ids.append(int(row["geo_id"]))
            baseline.append(float(row["baseline_share"]))
            candidate.append(float(row["v2_share"]))
            v1_tests.append(int(row["v1_tests"]))
            v2_tests.append(int(row["v2_tests"]))
            rates.append(float(row["case_rate"]))
        v1_counts, v2_counts = (np.array(counts, dtype=np.int64) for counts in (v1_tests, v2_tests))
    with reading(json_path) as fh:
        doc = json.load(fh)
        plan = AllocationPlan(
            geo_ids=tuple(geo_ids),
            p1=number(doc["p1"], "p1"),
            p2=number(doc["p2"], "p2"),
            baseline_share=np.array(baseline, dtype=float),
            v2_share=np.array(candidate, dtype=float),
            v1_tests=v1_counts,
            v2_tests=v2_counts,
            rates=np.array(rates, dtype=float),
            total_tests=integer(doc["total_tests"], "total_tests"),
            target_year=integer(doc["target_year"], "target_year"),
            projected_cases_v1=number(doc["projected_cases_v1"], "projected_cases_v1"),
            projected_cases_v2=number(doc["projected_cases_v2"], "projected_cases_v2"),
            delta_cases=number(doc["delta_cases"], "delta_cases"),
        )
    scalars = (plan.p1, plan.p2, plan.projected_cases_v1, plan.projected_cases_v2, plan.delta_cases)
    if not all(map(math.isfinite, (*scalars, *baseline, *candidate, *rates))):
        raise InputFileError(f"{csv_path} or {json_path} holds a number that is not finite")
    for name, counts in (("v1_tests", v1_tests), ("v2_tests", v2_tests)):
        if sum(counts) != plan.total_tests:
            raise InputFileError(
                f"{csv_path} and {json_path} disagree: sum({name}) = {sum(counts)}, "
                f"not the {plan.total_tests} tests"
            )
    if min(rates, default=0.0) < 0.0:
        raise InputFileError(f"{csv_path} holds a negative case_rate")
    projected = float(plan.total_tests * np.sum(plan.rates * plan.baseline_share))
    if not math.isclose(projected, plan.projected_cases_v1, rel_tol=1e-9):
        raise InputFileError(
            f"{csv_path} and {json_path} disagree: the case rates project {projected!r} "
            f"baseline cases, not projected_cases_v1 = {plan.projected_cases_v1!r}"
        )
    return plan


def write_trace(trace, path: str | Path) -> None:
    """trace.csv: a header, then one line per TracePoint in ``trace``, in
    chunks of ``_TRACE_CHUNK`` lines.

    Each line is the bytes ``csv.writer(lineterminator="\\n")`` writes for
    [repr(p1), repr(p2), repr(delta_cases) or "", int(feasible), reason or ""].
    No field but a score reason holds a comma, quote or line end, so only
    the score reasons are quoted. A weight's repr is computed once per float
    object, and the lattice shares one object per value; a cache keyed by
    value would write 0.0 for -0.0, which compares equal to it.
    """
    write_text(path, _trace_chunks(trace))


# lines of trace.csv formatted into one string before it is written
_TRACE_CHUNK = 1024


def _trace_chunks(trace):
    yield "p1,p2,delta_cases,feasible,reason\n"
    # the feasible and reason fields of each code that is not a score verdict
    tails = [f"{int(code == _FEASIBLE)},{reason or ''}\n" for code, reason in enumerate(_REASONS)]
    # each weight object, and its repr, by id; holding the object keeps its
    # id from being given to another float while the trace is written
    texts = {}
    lines = []
    for point in trace:
        p1, p2, delta, code = point.p1, point.p2, point.delta_cases, point.code
        text1 = texts.get(id(p1))
        if text1 is None:
            text1 = texts[id(p1)] = (p1, repr(p1))
        text2 = texts.get(id(p2))
        if text2 is None:
            text2 = texts[id(p2)] = (p2, repr(p2))
        if code in _SCORE_VERDICTS:
            # str.format writes a float as its repr, so the weights' texts serve
            tail = '0,"' + _REASONS[code].format(p1=text1[1], p2=text2[1]) + '"\n'
        else:
            tail = tails[code]
        lines.append(f"{text1[1]},{text2[1]},{'' if delta is None else repr(delta)},{tail}")
        if len(lines) == _TRACE_CHUNK:
            yield "".join(lines)
            lines.clear()
    yield "".join(lines)

"""The block lattice search against the per-point loop it replaced.

``reference_search`` below is the search as it was written before the
lattice was scored in blocks: one (p1, p2) point at a time, with its own
candidate share, largest-remainder apportionment and first-violation check.
The block search must reproduce its trace and its winner bit for bit, and
the block apportionment must reproduce its per-row apportionment.
"""

import numpy as np
import pytest

from panel_helpers import make_record
from leadalloc.allocate import (
    ConstraintConfig,
    GridConfig,
    InfeasibleWeights,
    NoFeasiblePoint,
    ShareVectors,
    _apportion,
    _BLOCK_ELEMENTS,
    case_difference,
    finalize_tests,
    grid_search,
    population_vector,
)
from leadalloc.panel import NeighborhoodPanel

TARGET_YEAR = 2021


def reference_v2_share(x, y, p1, p2):
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


def reference_finalize(share, total_tests):
    raw = share * float(total_tests)
    base = np.floor(raw)
    remainder = int(total_tests - np.sum(base))
    counts = base.astype(np.int64)
    if remainder > 0:
        order = np.argsort(-(raw - base), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def reference_first_violation(share, total_tests, delta, floor, population, config, seen):
    if bool(np.any(share < floor)):
        return "floor"
    seen["at_floor"] += int(np.sum(share == floor))
    if config.population_cap:
        tests = reference_finalize(share, total_tests)
        if bool(np.any(tests > population)):
            return "population_cap"
        seen["at_cap"] += int(np.sum(tests == population))
    if config.require_nonnegative_delta and delta < 0.0:
        return "negative_delta"
    return None


def reference_search(x, y, rates, total_tests, p1_values, p2_values, floor, population, config, seen):
    """The per-point search: (trace, best) with best = (delta, p1, p2) or None."""
    trace = []
    best = None
    for p1 in p1_values:
        for p2 in p2_values:
            try:
                candidate = reference_v2_share(x, y, p1, p2)
            except InfeasibleWeights as exc:
                trace.append((p1, p2, None, False, str(exc)))
                continue
            delta = case_difference(total_tests, rates, x, candidate)
            kind = reference_first_violation(
                candidate, total_tests, delta, floor, population, config, seen
            )
            trace.append((p1, p2, delta, kind is None, kind))
            if kind is None and (best is None or delta > best[0]):
                best = (delta, p1, p2)
    return trace, best


def exact(trace):
    """Trace points with floats as hex strings, so -0.0 and 0.0 differ."""
    return [
        (p1.hex(), p2.hex(), None if delta is None else delta.hex(), feasible, reason)
        for p1, p2, delta, feasible, reason in trace
    ]


def random_instance(rng, n):
    tests = rng.integers(0, 1000, size=n) * (rng.random(n) > 0.2)
    tests[rng.integers(n)] += 1
    cases = rng.integers(0, 60, size=n) * (rng.random(n) > 0.3)
    cases[rng.integers(n)] += 1
    x = tests / tests.sum()
    y = cases / cases.sum()
    rates = rng.random(n) * 0.1 * (rng.random(n) > 0.1)
    total = int(rng.integers(1, 20000))
    baseline = reference_finalize(x, total)
    population = baseline + rng.integers(0, total // 2 + 2, size=n)
    # up to two geos are capped at their baseline count, sometimes one below
    at_cap = rng.choice(n, size=min(n, int(rng.integers(0, 3))), replace=False)
    population[at_cap] = baseline[at_cap] - (rng.random(at_cap.size) < 0.2)
    population = np.maximum(population, 0)
    uncapped = rng.random(n) < 0.1
    geo_ids = tuple(range(1, n + 1))
    # an uncapped geo is a panel geo with no record in the target year
    panel = NeighborhoodPanel(
        records=tuple(
            make_record(g, TARGET_YEAR, 50, 1, child_population=int(pop))
            for g, pop, free in zip(geo_ids, population, uncapped)
            if not free
        ),
        years=(TARGET_YEAR,),
        geo_ids=geo_ids,
    )
    shares = ShareVectors(
        geo_ids=geo_ids, x=x, y=y, window_years=(TARGET_YEAR,), target_year=TARGET_YEAR
    )
    config = ConstraintConfig(
        floor_fraction=float(rng.choice([0.0, 0.25, 0.5, 0.9, 1.0])),
        population_cap=bool(rng.random() < 0.7),
        require_nonnegative_delta=bool(rng.integers(0, 2)),
    )
    step = float(rng.choice([0.1, 0.25, 0.5, 1.0]))
    ranges = []
    for _ in range(2):
        lo = int(rng.integers(-4, 3)) * step
        ranges.append((lo, lo + int(rng.integers(0, 21)) * step))
    grid = GridConfig(p1_range=ranges[0], p2_range=ranges[1], step=step)
    return panel, shares, rates, total, config, grid


def counters():
    """How often the comparisons met each case the tests must cover."""
    return dict.fromkeys(
        ("at_floor", "at_cap", "no_feasible", "multi_block", "n1", "nonneg_delta"), 0
    )


def compare(panel, shares, rates, total, config, grid, seen):
    """Run both searches and assert they agree; returns the trace reasons."""
    population = population_vector(panel, TARGET_YEAR)
    floor = config.floor_fraction * shares.x
    trace, best = reference_search(
        shares.x, shares.y, rates, total, grid.p1_values(), grid.p2_values(),
        floor, population, config, seen,
    )
    if best is None:
        with pytest.raises(NoFeasiblePoint):
            grid_search(panel, shares, total, grid, config, rates=rates)
        seen["no_feasible"] += 1
    else:
        result = grid_search(panel, shares, total, grid, config, rates=rates)
        got = [(p.p1, p.p2, p.delta_cases, p.feasible, p.reason) for p in result.trace]
        assert exact(got) == exact(trace)
        assert all(type(p.delta_cases) in (float, type(None)) for p in result.trace)
        plan = result.plan
        assert (plan.p1, plan.p2) == (best[1], best[2])
        assert plan.delta_cases.hex() == best[0].hex()
        candidate = reference_v2_share(shares.x, shares.y, best[1], best[2])
        assert np.array_equal(plan.v2_share, candidate)
        assert np.array_equal(plan.v2_tests, reference_finalize(candidate, total))
    lattice = len(grid.p1_values()) * len(grid.p2_values())
    if lattice > max(1, _BLOCK_ELEMENTS // shares.x.size):
        seen["multi_block"] += 1
    seen["n1"] += shares.x.size == 1
    seen["nonneg_delta"] += config.require_nonnegative_delta
    return {reason.split(" at ")[0] for *_, reason in trace if reason is not None}


class TestBlockSearchMatchesReference:
    def test_trace_and_winner_on_random_instances(self):
        rng = np.random.default_rng(20)
        seen = counters()
        reasons = set()
        for _ in range(240):
            n = int(rng.choice([1, 2, 3, 5, 8, 42, 60, 150]))
            reasons |= compare(*random_instance(rng, n), seen)
        assert reasons == {
            "negative share score",
            "non-positive score total",
            "floor",
            "population_cap",
            "negative_delta",
        }
        assert seen["at_floor"] > 100 and seen["at_cap"] > 100
        assert seen["no_feasible"] >= 3 and seen["multi_block"] >= 3
        assert seen["n1"] >= 3 and seen["nonneg_delta"] >= 30

    def test_full_lattice_over_many_blocks(self):
        rng = np.random.default_rng(21)
        panel, shares, rates, total, _, _ = random_instance(rng, 42)
        config = ConstraintConfig(floor_fraction=0.5, population_cap=False)
        grid = GridConfig(p1_range=(-3.0, 3.0), p2_range=(-3.0, 3.0), step=0.1)
        seen = counters()
        compare(panel, shares, rates, total, config, grid, seen)
        assert seen["multi_block"] == 1 and seen["no_feasible"] == 0


class TestBlockApportionment:
    def test_rows_match_reference_on_tie_heavy_shares(self):
        rng = np.random.default_rng(22)
        split_ties = 0
        for _ in range(1000):
            n = int(rng.choice([1, 2, 3, 4, 6, 8, 12, 30]))
            rows = int(rng.integers(1, 9))
            weights = rng.integers(0, 4, size=(rows, n)).astype(float)
            weights[weights.sum(axis=1) == 0] = 1.0
            block = weights / weights.sum(axis=1, keepdims=True)
            if rng.random() < 0.5:
                # near ties: remainders that differ only in their last bits
                block *= 1.0 + rng.integers(-2, 3, size=block.shape) * 2.0**-50
            total = int(rng.choice([0, 1, 2, 3, 5, 7, 10, 24, 100, 999, 10**6]))
            counts = _apportion(block, total)
            for row, got in zip(block, counts):
                want = reference_finalize(row, total)
                assert np.array_equal(got, want)
                assert np.array_equal(finalize_tests(row, total), want)
                raw = row * float(total)
                frac = raw - np.floor(raw)
                remainder = int(total - np.sum(np.floor(raw)))
                order = np.argsort(-frac, kind="stable")
                if 0 < remainder < n and frac[order[remainder - 1]] == frac[order[remainder]]:
                    split_ties += 1
        assert split_ties > 500

    def test_empty_and_single_geo(self):
        assert finalize_tests(np.array([]), 5).tolist() == []
        assert finalize_tests([1.0], 7).tolist() == [7]
        assert finalize_tests([1 / 3] * 3, 10).tolist() == [4, 3, 3]

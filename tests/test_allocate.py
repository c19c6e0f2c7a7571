"""Allocation tests: shares, the candidate formula, apportionment,
constraints, and the grid search.

Hand-checked values use dyadic rationals (quarters, eighths) so float
arithmetic is exact and assertions can use plain equality.
"""

import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panel_helpers import add_bom, make_panel, make_record, random_panel
from leadalloc import allocate
from leadalloc.allocate import (
    AllocationPlan,
    ConstraintConfig,
    GridConfig,
    ShareVectors,
    TracePoint,
    _REASONS,
    _evaluate_block,
    build_plan,
    case_difference,
    case_rates,
    check_constraints,
    compute_shares,
    finalize_tests,
    grid_search,
    grid_values,
    population_vector,
    read_plan,
    v2_share,
    write_plan,
    write_trace,
)
from leadalloc.errors import ConfigError, DataError, InfeasibleError
from leadalloc.panel import NeighborhoodPanel


def share_vectors(x, y, geo_ids=None, target_year=2021, window_years=(2020, 2021)):
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    if geo_ids is None:
        geo_ids = tuple(range(1, x.size + 1))
    return ShareVectors(
        geo_ids=tuple(geo_ids), x=x, y=y, window_years=window_years, target_year=target_year
    )


def two_geo_panel() -> NeighborhoodPanel:
    return make_panel(
        [(1, 2020, 50, 2), (1, 2021, 30, 3), (2, 2020, 70, 5), (2, 2021, 70, 10)]
    )


class TestGridValues:
    def test_default_lattice_hits_canonical_points(self):
        values = grid_values(-10.0, 10.0, 0.1)
        assert len(values) == 201
        assert values[0] == -10.0
        assert values[-1] == 10.0
        assert 0.0 in values
        assert 1.0 in values

    def test_narrow_lattice(self):
        values = grid_values(-1.0, 1.0, 0.1)
        assert len(values) == 21
        assert 1.0 in values and 0.0 in values

    def test_single_point_range(self):
        assert grid_values(2.0, 2.0, 0.1) == [2.0]

    def test_uneven_range_keeps_lo_steps(self):
        assert grid_values(0.0, 1.0, 0.4) == [0.0, 0.4, 0.8]

    @given(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=0, max_value=40),
        st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_count_and_monotonicity(self, lo_units, span_units, step):
        lo = lo_units * step
        hi = lo + span_units * step
        values = grid_values(lo, hi, step)
        assert len(values) == span_units + 1
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_config_validates(self):
        with pytest.raises(ConfigError):
            GridConfig(p1_range=(1.0, -1.0))
        with pytest.raises(ConfigError):
            GridConfig(step=0.0)


class TestComputeShares:
    def test_hand_values(self):
        shares = compute_shares(two_geo_panel(), 2021, window=2)
        assert shares.geo_ids == (1, 2)
        assert shares.x.tolist() == [30 / 100, 70 / 100]
        assert shares.y.tolist() == [5 / 20, 15 / 20]
        assert shares.window_years == (2020, 2021)

    def test_window_one_uses_target_year_only(self):
        shares = compute_shares(two_geo_panel(), 2021, window=1)
        assert shares.y.tolist() == [3 / 13, 10 / 13]

    def test_missing_window_year_is_config_error(self):
        with pytest.raises(ConfigError, match="2019"):
            compute_shares(two_geo_panel(), 2021, window=3)

    def test_zero_city_tests(self):
        panel = make_panel([(1, 2020, 10, 1), (1, 2021, 0, 0), (2, 2021, 0, 0)])
        with pytest.raises(DataError, match="no tests recorded citywide in 2021"):
            compute_shares(panel, 2021, window=1)

    def test_zero_city_cases(self):
        panel = make_panel([(1, 2021, 10, 0), (2, 2021, 10, 0)])
        with pytest.raises(DataError, match=r"no cases recorded citywide over \[2021\]"):
            compute_shares(panel, 2021, window=1)

    def test_missing_cell_counts_as_zero(self):
        panel = make_panel([(1, 2020, 50, 2), (1, 2021, 30, 3), (2, 2021, 70, 10)])
        shares = compute_shares(panel, 2021, window=2)
        assert shares.y.tolist() == [5 / 15, 10 / 15]


class TestCaseRates:
    def test_pooled_hand_values(self):
        rates = case_rates(two_geo_panel(), 2021, window=2)
        assert rates.tolist() == [5 / 80, 15 / 140]

    def test_zero_test_window_rate_is_zero(self):
        panel = make_panel([(1, 2021, 0, 0), (2, 2021, 80, 4)])
        rates = case_rates(panel, 2021, window=1)
        assert rates.tolist() == [0.0, 0.05]

    def test_window_outside_panel_rejected(self):
        years = range(2005, 2022)
        panel = make_panel([(g, y, 100, 5) for g in (1, 2) for y in years])
        with pytest.raises(ConfigError, match="missing"):
            case_rates(panel, 2021, window=40)
        with pytest.raises(ConfigError, match="missing"):
            case_rates(panel, 2025, window=1)
        assert case_rates(panel, 2021, window=17).tolist() == [0.05, 0.05]


def cell(panel, geo, year, fieldname):
    rec = panel.record(geo, year)
    return 0 if rec is None else getattr(rec, fieldname)


class TestAgainstPerCellLoops:
    """Shares and rates equal the per-cell loops over ``panel.record`` that
    the view's column slices replaced, bit for bit."""

    def test_random_panels(self):
        rng = np.random.default_rng(29)
        computed = 0
        for _ in range(300):
            panel = random_panel(rng)
            if not panel.years:
                continue
            year = panel.years[-1]
            window = int(rng.integers(1, 4))
            window_years = range(year - window + 1, year + 1)
            try:
                rates = case_rates(panel, year, window)
            except ConfigError:
                assert any(y not in panel.years for y in window_years)
                continue
            expected = []
            for geo in panel.geo_ids:
                tests = sum(cell(panel, geo, y, "tests") for y in window_years)
                cases = sum(cell(panel, geo, y, "cases_5plus") for y in window_years)
                expected.append(cases / tests if tests > 0 else 0.0)
            assert rates.tolist() == expected
            tests = np.array([cell(panel, g, year, "tests") for g in panel.geo_ids], dtype=float)
            cases = np.array(
                [sum(cell(panel, g, y, "cases_5plus") for y in window_years) for g in panel.geo_ids],
                dtype=float,
            )
            if np.sum(tests) <= 0 or np.sum(cases) <= 0:
                with pytest.raises(DataError, match="no (tests|cases) recorded citywide"):
                    compute_shares(panel, year, window)
                continue
            shares = compute_shares(panel, year, window)
            assert shares.x.tolist() == (tests / float(np.sum(tests))).tolist()
            assert shares.y.tolist() == (cases / float(np.sum(cases))).tolist()
            assert shares.window_years == tuple(window_years)
            population = [
                math.inf if panel.record(g, year) is None else float(panel.record(g, year).child_population)
                for g in panel.geo_ids
            ]
            assert population_vector(panel, year).tolist() == population
            computed += 1
        assert computed >= 100


class TestV2Share:
    def test_identity_on_testing_weight(self):
        shares = share_vectors([0.75, 0.25], [0.25, 0.75])
        out = v2_share(shares, 1.0, 0.0)
        assert np.array_equal(out, shares.x)
        assert out is not shares.x

    def test_identity_on_case_weight(self):
        shares = share_vectors([0.75, 0.25], [0.25, 0.75])
        assert np.array_equal(v2_share(shares, 0.0, 2.0), shares.y)

    def test_blend_hand_value(self):
        shares = share_vectors([0.75, 0.25], [0.25, 0.75])
        assert v2_share(shares, 1.0, 1.0).tolist() == [0.5, 0.5]

    def test_negative_score_infeasible(self):
        shares = share_vectors([0.75, 0.25], [0.25, 0.75])
        with pytest.raises(InfeasibleError, match=r"negative share score at \(p1=-1\.0, p2=0\.5\)"):
            v2_share(shares, -1.0, 0.5)

    def test_zero_total_infeasible(self):
        shares = share_vectors([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(InfeasibleError, match=r"non-positive score total at \(p1=0\.0, p2=0\.0\)"):
            v2_share(shares, 0.0, 0.0)

    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_feasible_output_is_a_share_vector(self, p1, p2):
        shares = share_vectors([0.125, 0.375, 0.5], [0.5, 0.25, 0.25])
        try:
            out = v2_share(shares, p1, p2)
        except InfeasibleError:
            return
        assert bool(np.all(out >= 0.0))
        assert abs(float(np.sum(out)) - 1.0) <= 1e-9


class TestCaseDifference:
    def test_zero_for_identical_shares(self):
        rates = [0.5, 0.25]
        assert case_difference(100, rates, [0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_hand_value(self):
        delta = case_difference(100, [0.5, 0.25], [0.5, 0.5], [0.75, 0.25])
        assert delta == 6.25

    def test_sign_follows_rate_ordering(self):
        better = case_difference(100, [0.5, 0.25], [0.5, 0.5], [0.75, 0.25])
        worse = case_difference(100, [0.5, 0.25], [0.5, 0.5], [0.25, 0.75])
        assert better > 0 > worse

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="misaligned vectors: rates"):
            case_difference(100, [0.5], [0.5, 0.5], [0.5, 0.5])

    def test_share_sum_checked(self):
        with pytest.raises(DataError, match="rho1 does not sum to 1"):
            case_difference(100, [0.5, 0.25], [0.6, 0.6], [0.5, 0.5])


class TestFinalizeTests:
    def test_even_split_tie_goes_to_first(self):
        assert finalize_tests([0.5, 0.5], 3).tolist() == [2, 1]

    def test_zero_fraction_never_bumped(self):
        assert finalize_tests([0.25, 0.25, 0.5], 2).tolist() == [1, 0, 1]

    def test_exact_shares_unchanged(self):
        assert finalize_tests([0.25, 0.25, 0.5], 4).tolist() == [1, 1, 2]

    def test_zero_total(self):
        assert finalize_tests([0.5, 0.5], 0).tolist() == [0, 0]

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            finalize_tests([1.0], -1)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=10, allow_nan=False), min_size=1, max_size=50),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_sums_exactly_and_stays_within_one(self, weights, total):
        share = np.array(weights) / np.sum(weights)
        counts = finalize_tests(share, total)
        assert int(np.sum(counts)) == total
        assert bool(np.all(np.abs(counts - share * total) < 1.0))


class TestCheckConstraints:
    def make_plan(self, v2, v2_tests, delta=0.0, baseline=(0.5, 0.5), total=100):
        return AllocationPlan(
            geo_ids=(1, 2),
            p1=1.0,
            p2=0.0,
            baseline_share=np.array(baseline),
            v2_share=np.array(v2),
            v1_tests=np.array([50, 50], dtype=np.int64),
            v2_tests=np.array(v2_tests, dtype=np.int64),
            rates=np.array([0.01, 0.02]),
            total_tests=total,
            target_year=2021,
            projected_cases_v1=0.0,
            projected_cases_v2=delta,
            delta_cases=delta,
        )

    def panel(self, populations=(1000, 1000)):
        records = [
            make_record(1, 2021, 50, 1, child_population=populations[0]),
            make_record(2, 2021, 50, 1, child_population=populations[1]),
        ]
        return NeighborhoodPanel.from_records(records)

    def test_exactly_at_floor_is_feasible(self):
        plan = self.make_plan([0.25, 0.75], [25, 75])
        config = ConstraintConfig(floor_fraction=0.5)
        assert check_constraints(plan, self.panel(), config) == []

    def test_below_floor_flagged_with_geo(self):
        plan = self.make_plan([0.2, 0.8], [20, 80])
        violations = check_constraints(plan, self.panel(), ConstraintConfig(floor_fraction=0.5))
        assert [v.kind for v in violations] == ["floor"]
        assert violations[0].geo_id == 1

    def test_population_cap_boundary_feasible(self):
        plan = self.make_plan([0.5, 0.5], [50, 50])
        assert check_constraints(plan, self.panel(populations=(50, 50)), ConstraintConfig()) == []

    def test_population_cap_exceeded(self):
        plan = self.make_plan([0.5, 0.5], [51, 49])
        violations = check_constraints(plan, self.panel(populations=(50, 50)), ConstraintConfig())
        assert [(v.kind, v.geo_id) for v in violations] == [("population_cap", 1)]

    def test_population_cap_disabled(self):
        plan = self.make_plan([0.5, 0.5], [51, 49])
        config = ConstraintConfig(population_cap=False)
        assert check_constraints(plan, self.panel(populations=(50, 50)), config) == []

    def test_negative_delta_flag(self):
        plan = self.make_plan([0.5, 0.5], [50, 50], delta=-2.0)
        config = ConstraintConfig(require_nonnegative_delta=True)
        violations = check_constraints(plan, self.panel(), config)
        assert [v.kind for v in violations] == ["negative_delta"]
        assert violations[0].geo_id is None

    def test_floor_fraction_validated(self):
        with pytest.raises(ConfigError):
            ConstraintConfig(floor_fraction=1.5)

    def test_search_check_agrees_on_random_candidates(self):
        """The search's verdict on a candidate equals check_constraints'
        first kind, including shares exactly at the floor and counts exactly
        at the population cap. The candidate is the case-share vector y,
        which the lattice point (0, 1) reproduces exactly."""
        rng = np.random.default_rng(5)
        at_floor = at_cap = 0
        kinds = set()
        for _ in range(400):
            n = int(rng.integers(1, 9))
            total = int(rng.integers(1, 2000))
            baseline = rng.dirichlet(np.ones(n))
            candidate = rng.dirichlet(np.ones(n))
            config = ConstraintConfig(
                floor_fraction=float(rng.choice([0.0, 0.25, 0.5, 0.9, 1.0])),
                population_cap=bool(rng.integers(0, 2)),
                require_nonnegative_delta=bool(rng.integers(0, 2)),
            )
            floor = config.floor_fraction * baseline
            exact = rng.random(n) < 0.3
            if exact.all():
                exact[rng.integers(n)] = False
            free = ~exact
            candidate[free] *= (1.0 - float(np.sum(floor[exact]))) / float(np.sum(candidate[free]))
            candidate[exact] = floor[exact]
            at_floor += int(exact.sum())
            tests = finalize_tests(candidate, total)
            populations = np.maximum(tests + rng.integers(-2, 3, size=n), 0)
            exact = rng.random(n) < 0.3
            populations[exact] = tests[exact]
            at_cap += int(np.sum(populations == tests))
            rates = rng.random(n)
            geo_ids = tuple(range(1, n + 1))
            panel = NeighborhoodPanel.from_records(
                [
                    make_record(g, 2021, 50, 1, child_population=int(pop))
                    for g, pop in zip(geo_ids, populations)
                ]
            )
            population = population_vector(panel, 2021)
            delta, code = _evaluate_block(
                share_vectors(baseline, candidate),
                rates,
                total,
                np.array([0.0]),
                np.array([1.0]),
                floor,
                population,
                config,
            )
            plan = AllocationPlan(
                geo_ids=geo_ids,
                p1=0.0,
                p2=1.0,
                baseline_share=baseline,
                v2_share=candidate,
                v1_tests=finalize_tests(baseline, total),
                v2_tests=tests,
                rates=rates,
                total_tests=total,
                target_year=2021,
                projected_cases_v1=0.0,
                projected_cases_v2=float(delta[0]),
                delta_cases=float(delta[0]),
            )
            violations = check_constraints(plan, panel, config)
            kind = _REASONS[code[0]]
            assert kind == (violations[0].kind if violations else None)
            kinds.add(kind)
        assert kinds == {None, "floor", "population_cap", "negative_delta"}
        assert at_floor > 100 and at_cap > 100

    def test_plan_for_other_neighborhoods_rejected(self, fixture_panel):
        shares = compute_shares(fixture_panel, 2021)
        plan = grid_search(fixture_panel, shares, 12480).plan
        tiny = NeighborhoodPanel.from_records(
            [replace(r, child_population=1) for r in fixture_panel.records]
        )
        assert len(check_constraints(plan, tiny, ConstraintConfig())) == 6
        shifted = NeighborhoodPanel.from_records(
            [replace(r, geo_id=r.geo_id + 800, child_population=r.tests) for r in fixture_panel.records]
        )
        with pytest.raises(DataError, match="the plan covers other neighborhoods than the panel"):
            check_constraints(plan, shifted, ConstraintConfig())
        with pytest.raises(DataError, match="the share vectors cover other neighborhoods than the panel"):
            grid_search(shifted, shares, 12480)


class TestPopulationVector:
    def test_absent_cell_is_uncapped(self):
        panel = NeighborhoodPanel.from_records(
            [
                make_record(1, 2020, 50, 1, child_population=70),
                make_record(1, 2021, 50, 1, child_population=80),
                make_record(2, 2020, 50, 1, child_population=90),
            ]
        )
        assert population_vector(panel, 2020).tolist() == [70.0, 90.0]
        assert population_vector(panel, 2021).tolist() == [80.0, math.inf]

    def test_year_outside_panel_rejected(self):
        with pytest.raises(DataError, match="2019"):
            population_vector(two_geo_panel(), 2019)


class TestBuildPlan:
    def test_identity_plan_reproduces_baseline(self):
        shares = share_vectors([0.75, 0.25], [0.25, 0.75])
        rates = np.array([0.0625, 0.125])
        plan = build_plan(shares, rates, 400, 1.0, 0.0)
        assert np.array_equal(plan.v2_share, shares.x)
        assert np.array_equal(plan.v1_tests, plan.v2_tests)
        assert plan.delta_cases == 0.0
        assert plan.projected_cases_v1 == plan.projected_cases_v2

    def test_counts_sum_to_total(self):
        shares = share_vectors([0.75, 0.25], [0.25, 0.75])
        plan = build_plan(shares, np.array([0.1, 0.2]), 333, 1.0, 1.0)
        assert int(plan.v1_tests.sum()) == 333
        assert int(plan.v2_tests.sum()) == 333


class TestGridSearch:
    def test_tie_break_picks_lexicographically_smallest(self):
        # x == y makes every feasible candidate equal the baseline, so all
        # feasible deltas are exactly zero and the winner must be the first
        # feasible lattice point in iteration order
        panel = make_panel([(1, 2021, 50, 2), (2, 2021, 50, 2)])
        shares = share_vectors([0.5, 0.5], [0.5, 0.5], window_years=(2021,))
        grid = GridConfig(p1_range=(-1.0, 1.0), p2_range=(-1.0, 1.0), step=0.1)
        result = grid_search(panel, shares, 100, grid, ConstraintConfig())
        assert (result.plan.p1, result.plan.p2) == (-0.9, 1.0)
        assert result.plan.delta_cases == 0.0
        assert len(result.trace) == 441
        assert sum(1 for point in result.trace if point.feasible) == 210

    def test_tie_across_blocks_picks_lexicographically_smallest(self, monkeypatch):
        # the all-zero-delta lattice above, scored seven points per block, so
        # the equal best deltas fall in many blocks
        panel = make_panel([(1, 2021, 50, 2), (2, 2021, 50, 2)])
        shares = share_vectors([0.5, 0.5], [0.5, 0.5], window_years=(2021,))
        grid = GridConfig(p1_range=(-1.0, 1.0), p2_range=(-1.0, 1.0), step=0.1)
        whole = grid_search(panel, shares, 100, grid, ConstraintConfig())
        feasible_per_block = []
        evaluate_block = allocate._evaluate_block

        def recording(*args):
            delta, code = evaluate_block(*args)
            feasible_per_block.append(int(np.sum(code == allocate._FEASIBLE)))
            return delta, code

        monkeypatch.setattr(allocate, "_evaluate_block", recording)
        monkeypatch.setattr(allocate, "_BLOCK_ELEMENTS", 2 * 7)
        result = grid_search(panel, shares, 100, grid, ConstraintConfig())
        assert sum(n > 0 for n in feasible_per_block) >= 30
        assert (result.plan.p1, result.plan.p2) == (-0.9, 1.0)
        assert result.plan.delta_cases == 0.0
        assert result.trace == whole.trace

    def test_no_feasible_point(self):
        panel = make_panel([(1, 2021, 50, 2), (2, 2021, 50, 2)])
        shares = share_vectors([0.5, 0.5], [0.25, 0.75], window_years=(2021,))
        grid = GridConfig(p1_range=(-1.0, -0.5), p2_range=(-1.0, -0.5), step=0.25)
        with pytest.raises(InfeasibleError, match=r"no feasible \(p1, p2\) on the 3x3 lattice"):
            grid_search(panel, shares, 100, grid, ConstraintConfig())

    def test_floor_skips_recorded_in_trace(self):
        panel = make_panel([(1, 2021, 50, 10), (2, 2021, 50, 0)])
        shares = share_vectors([0.5, 0.5], [1.0, 0.0], window_years=(2021,))
        grid = GridConfig(p1_range=(0.0, 1.0), p2_range=(0.0, 1.0), step=0.5)
        result = grid_search(panel, shares, 100, grid, ConstraintConfig())
        reasons = {point.reason for point in result.trace if not point.feasible}
        assert "floor" in reasons
        assert check_constraints(result.plan, panel, ConstraintConfig()) == []

    def test_population_cap_blocks_baseline_but_search_recovers(self):
        records = [
            make_record(1, 2021, 50, 1, child_population=60),
            make_record(2, 2021, 50, 12, child_population=400),
        ]
        panel = NeighborhoodPanel.from_records(records)
        shares = compute_shares(panel, 2021, window=1)
        grid = GridConfig(p1_range=(0.0, 1.0), p2_range=(0.0, 1.0), step=0.5)
        result = grid_search(panel, shares, 200, grid, ConstraintConfig())
        baseline_point = next(
            point for point in result.trace if (point.p1, point.p2) == (1.0, 0.0)
        )
        assert not baseline_point.feasible
        assert baseline_point.reason == "population_cap"
        assert int(result.plan.v2_tests[0]) <= 60

    @pytest.mark.parametrize(
        "code, feasible, reason",
        [
            (allocate._FEASIBLE, True, None),
            (allocate._NEGATIVE_SCORE, False, "negative share score at (p1=-0.5, p2=1.5)"),
            (allocate._NONPOSITIVE_TOTAL, False, "non-positive score total at (p1=-0.5, p2=1.5)"),
            (allocate._FLOOR, False, "floor"),
            (allocate._POPULATION_CAP, False, "population_cap"),
            (allocate._NEGATIVE_DELTA, False, "negative_delta"),
        ],
    )
    def test_trace_point_words_its_verdict_code(self, code, feasible, reason):
        point = TracePoint(-0.5, 1.5, None, code)
        assert point.feasible is feasible
        assert point.reason == reason

    def test_trace_points_hold_no_text(self, fixture_panel):
        # the lattice's 40,401 points keep a verdict code each, and word it
        # only when read, so the trace holds no string per point
        shares = compute_shares(fixture_panel, 2021, window=3)
        result = grid_search(fixture_panel, shares, 12480, GridConfig(), ConstraintConfig())
        assert len(result.trace) == 201 * 201
        values = [getattr(point, name) for point in result.trace for name in TracePoint.__slots__]
        assert not any(isinstance(value, str) for value in values)
        # the score verdicts, whose reasons quote the weights, are in it
        assert any(point.reason.startswith("negative share score at ") for point in result.trace if point.reason)

    def test_trace_covers_every_combination(self):
        panel = make_panel([(1, 2021, 50, 2), (2, 2021, 50, 6)])
        shares = compute_shares(panel, 2021, window=1)
        grid = GridConfig(p1_range=(-0.5, 0.5), p2_range=(0.0, 1.0), step=0.5)
        result = grid_search(panel, shares, 100, grid, ConstraintConfig())
        seen = [(point.p1, point.p2) for point in result.trace]
        assert seen == [(p1, p2) for p1 in (-0.5, 0.0, 0.5) for p2 in (0.0, 0.5, 1.0)]

    def test_infeasible_weights_have_no_delta(self):
        panel = make_panel([(1, 2021, 50, 2), (2, 2021, 50, 6)])
        shares = compute_shares(panel, 2021, window=1)
        grid = GridConfig(p1_range=(-1.0, 1.0), p2_range=(-1.0, 1.0), step=1.0)
        result = grid_search(panel, shares, 100, grid, ConstraintConfig())
        for point in result.trace:
            if point.delta_cases is None:
                assert not point.feasible


class TestPlanRoundTrip:
    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "with_a_bom"])
    def test_write_read_exact(self, fixture_panel, tmp_path, bom):
        shares = compute_shares(fixture_panel, 2021, window=3)
        grid = GridConfig(p1_range=(-1.0, 1.0), p2_range=(-1.0, 1.0), step=0.5)
        result = grid_search(fixture_panel, shares, 12480, grid, ConstraintConfig())
        csv_path = tmp_path / "plan.csv"
        json_path = tmp_path / "plan.json"
        write_plan(result.plan, csv_path, json_path)
        if bom:
            add_bom(csv_path, json_path)
        again = read_plan(csv_path, json_path)
        assert again.geo_ids == result.plan.geo_ids
        assert np.array_equal(again.baseline_share, result.plan.baseline_share)
        assert np.array_equal(again.v2_share, result.plan.v2_share)
        assert np.array_equal(again.v1_tests, result.plan.v1_tests)
        assert np.array_equal(again.v2_tests, result.plan.v2_tests)
        assert np.array_equal(again.rates, result.plan.rates)
        assert again.delta_cases == result.plan.delta_cases
        assert again.p1 == result.plan.p1

    def test_trace_csv_layout(self, tmp_path):
        panel = make_panel([(1, 2021, 50, 2), (2, 2021, 50, 6)])
        shares = compute_shares(panel, 2021, window=1)
        grid = GridConfig(p1_range=(0.0, 1.0), p2_range=(0.0, 1.0), step=1.0)
        result = grid_search(panel, shares, 100, grid, ConstraintConfig())
        path = tmp_path / "trace.csv"
        write_trace(result.trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p1,p2,delta_cases,feasible,reason"
        assert len(lines) == 5


def csv_module_trace(trace) -> bytes:
    """trace.csv as csv.writer writes it, the formula write_trace replaced."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["p1", "p2", "delta_cases", "feasible", "reason"])
    writer.writerows(
        [repr(point.p1), repr(point.p2), "" if point.delta_cases is None else repr(point.delta_cases),
         int(point.feasible), point.reason or ""]
        for point in trace
    )
    return out.getvalue().encode("utf-8")


class TestTraceBytes:
    """write_trace formats each line itself, and writes the csv module's bytes."""

    def written(self, result, tmp_path) -> bytes:
        path = tmp_path / "trace.csv"
        write_trace(result.trace, path)
        return path.read_bytes()

    def test_default_lattice(self, fixture_panel, tmp_path):
        shares = compute_shares(fixture_panel, 2021, window=3)
        result = grid_search(fixture_panel, shares, 12480, GridConfig(), ConstraintConfig())
        # more lines than one chunk holds
        assert len(result.trace) > 10 * allocate._TRACE_CHUNK
        assert self.written(result, tmp_path) == csv_module_trace(result.trace)

    def test_signed_zero_lattice(self, fixture_panel, tmp_path):
        # -0.0 and 0.0 compare and hash equal, and each axis holds both
        grid = GridConfig(p1_range=(-1e-12, 1e-12), p2_range=(-1e-12, 3e-12), step=1e-13)
        for values in (grid.p1_values(), grid.p2_values()):
            assert {math.copysign(1.0, value) for value in values if value == 0.0} == {-1.0, 1.0}
        shares = compute_shares(fixture_panel, 2021, window=3)
        result = grid_search(fixture_panel, shares, 12480, grid, ConstraintConfig())
        written = self.written(result, tmp_path)
        assert written == csv_module_trace(result.trace)
        assert b"\n-0.0,-0.0," in written and b"\n0.0,0.0," in written

    def test_every_verdict(self, tmp_path):
        records = [
            make_record(1, 2021, 50, 1, child_population=400),
            make_record(2, 2021, 50, 12, child_population=80),
            make_record(3, 2021, 100, 4, child_population=400),
        ]
        panel = NeighborhoodPanel.from_records(records)
        shares = compute_shares(panel, 2021, window=1)
        grid = GridConfig(p1_range=(-1.0, 1.0), p2_range=(-1.0, 1.0), step=0.25)
        constraints = ConstraintConfig(floor_fraction=0.3, require_nonnegative_delta=True)
        result = grid_search(panel, shares, 200, grid, constraints)
        assert {point.code for point in result.trace} == set(range(len(_REASONS)))
        assert self.written(result, tmp_path) == csv_module_trace(result.trace)

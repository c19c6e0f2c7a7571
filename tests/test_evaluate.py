"""Evaluation tests: the pooled z-test, cluster summaries, reallocation
percentages, and report serialization.

Frozen statistical values were computed from the closed-form pooled
two-proportion formula with 40-digit arithmetic and rounded to float:
  (2860 of 260000) vs (3270 of 260000) -> z = 5.267792495201158
  (0 of 10) vs (10 of 10)              -> z = 4.47213595499958
  two-sided tail at z = 1.96           -> p = 0.04999579029644087
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadalloc import allocate, normalize
from leadalloc.allocate import AllocationPlan, ShareMismatch
from leadalloc.cluster import ClusterAssignment, cluster_neighborhoods
from leadalloc.evaluate import (
    DegeneratePooled,
    UnassignedGeo,
    cluster_case_deltas,
    evaluate_plan,
    format_report,
    normal_two_sided_p,
    reallocation_percentages,
    report_to_dict,
    round_half_up,
    two_proportion_ztest,
    write_report,
)


def make_plan(
    baseline=(0.5, 0.5),
    v2=(0.25, 0.75),
    v1_tests=(50, 50),
    v2_tests=(25, 75),
    total=100,
    cases_v1=10.0,
    cases_v2=12.0,
) -> AllocationPlan:
    return AllocationPlan(
        geo_ids=(1, 2),
        p1=0.5,
        p2=1.5,
        baseline_share=np.array(baseline),
        v2_share=np.array(v2),
        v1_tests=np.array(v1_tests, dtype=np.int64),
        v2_tests=np.array(v2_tests, dtype=np.int64),
        total_tests=total,
        target_year=2021,
        projected_cases_v1=cases_v1,
        projected_cases_v2=cases_v2,
        delta_cases=cases_v2 - cases_v1,
    )


def make_assignment(labels, medoids) -> ClusterAssignment:
    return ClusterAssignment(
        labels=labels, medoids=medoids, total_cost=0.0, n_iter=1, cost_history=(0.0,)
    )


class TestTwoProportionZTest:
    def test_frozen_large_sample(self):
        result = two_proportion_ztest(2860, 260000, 3270, 260000)
        assert abs(result.z - 5.267792495201158) <= 1e-12
        assert abs(result.p_value - 1.380740531184301e-07) <= 1e-18
        assert result.p_value < 0.05

    def test_frozen_small_sample(self):
        result = two_proportion_ztest(0, 10, 10, 10)
        assert abs(result.z - 4.47213595499958) <= 1e-12
        assert abs(result.p_value - 7.744216431044096e-06) <= 1e-16

    def test_equal_rates_give_zero(self):
        result = two_proportion_ztest(5, 100, 5, 100)
        assert result.z == 0.0
        assert result.p_value == 1.0

    def test_direction_sign(self):
        assert two_proportion_ztest(5, 100, 20, 100).z > 0
        assert two_proportion_ztest(20, 100, 5, 100).z < 0

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=51, max_value=200),
        st.integers(min_value=51, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_antisymmetric_in_sample_order(self, c1, c2, n1, n2):
        try:
            forward = two_proportion_ztest(c1, n1, c2, n2)
        except DegeneratePooled:
            return
        backward = two_proportion_ztest(c2, n2, c1, n1)
        assert forward.z == -backward.z
        assert forward.p_value == backward.p_value

    @given(st.integers(min_value=0, max_value=99))
    @settings(max_examples=100, deadline=None)
    def test_z_strictly_increasing_in_second_count(self, c2):
        lower = two_proportion_ztest(10, 100, c2, 100).z
        upper = two_proportion_ztest(10, 100, c2 + 1, 100).z
        assert upper > lower

    def test_degenerate_all_zero(self):
        with pytest.raises(DegeneratePooled):
            two_proportion_ztest(0, 100, 0, 100)

    def test_degenerate_all_ones(self):
        with pytest.raises(DegeneratePooled):
            two_proportion_ztest(100, 100, 100, 100)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            two_proportion_ztest(5, 0, 5, 100)
        with pytest.raises(ValueError):
            two_proportion_ztest(101, 100, 5, 100)
        with pytest.raises(ValueError):
            two_proportion_ztest(-1, 100, 5, 100)


class TestNormalTail:
    def test_conventional_threshold(self):
        assert abs(normal_two_sided_p(1.96) - 0.04999579029644087) <= 1e-15
        assert abs(normal_two_sided_p(1.96) - 0.05) <= 1e-4

    def test_zero_gives_one(self):
        assert normal_two_sided_p(0.0) == 1.0

    def test_symmetric(self):
        assert normal_two_sided_p(-2.5) == normal_two_sided_p(2.5)

    @given(st.floats(min_value=0.0, max_value=8.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_monotone_decreasing(self, z):
        assert normal_two_sided_p(z + 0.5) <= normal_two_sided_p(z)


class TestRounding:
    def test_half_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(2.4) == 2
        assert round_half_up(3.5) == 4
        assert round_half_up(0.0) == 0
        assert round_half_up(-0.5) == 0
        assert round_half_up(-0.6) == -1


class TestClusterCases:
    def test_hand_totals(self):
        plan = make_plan()
        assignment = make_assignment({1: "a", 2: "b"}, {"a": 1, "b": 2})
        rates = np.array([0.5, 0.25])
        out = cluster_case_deltas(plan, assignment, rates)
        assert out == {"a": (25.0, 12.5), "b": (12.5, 18.75)}

    def test_labels_aggregate(self):
        plan = make_plan()
        assignment = make_assignment({1: "a", 2: "a"}, {"a": 1})
        out = cluster_case_deltas(plan, assignment, np.array([0.5, 0.25]))
        assert out == {"a": (37.5, 31.25)}

    def test_every_label_present(self):
        plan = make_plan()
        assignment = make_assignment({1: "a", 2: "a"}, {"a": 1, "empty": 2})
        out = cluster_case_deltas(plan, assignment, np.array([0.5, 0.25]))
        assert out["empty"] == (0.0, 0.0)

    def test_unassigned_geo(self):
        plan = make_plan()
        assignment = make_assignment({1: "a"}, {"a": 1})
        with pytest.raises(UnassignedGeo):
            cluster_case_deltas(plan, assignment, np.array([0.5, 0.25]))

    def test_cluster_sums_match_plan_totals(self, fixture_panel):
        shares = allocate.compute_shares(fixture_panel, 2021, 3)
        rates = allocate.case_rates(fixture_panel, 2021, 3)
        plan = allocate.build_plan(shares, rates, 12480, 0.5, 2.0)
        assignment = cluster_neighborhoods(normalize.normalize_panel(fixture_panel), 5)
        out = cluster_case_deltas(plan, assignment, rates)
        total_before = sum(pair[0] for pair in out.values())
        total_after = sum(pair[1] for pair in out.values())
        assert total_before == pytest.approx(plan.projected_cases_v1, abs=1e-6)
        assert total_after == pytest.approx(plan.projected_cases_v2, abs=1e-6)


class TestReallocation:
    def test_hand_percentages(self):
        out = reallocation_percentages(make_plan())
        assert out == {1: 50.0, 2: 150.0}

    def test_zero_former_tests_is_none(self):
        plan = make_plan(v1_tests=(0, 100), v2_tests=(25, 75))
        out = reallocation_percentages(plan)
        assert out[1] is None
        assert out[2] == 75.0


class TestEvaluatePlan:
    def test_full_report(self):
        plan = make_plan(cases_v1=10.2, cases_v2=14.5, total=1000)
        assignment = make_assignment({1: "a", 2: "b"}, {"a": 1, "b": 2})
        report = evaluate_plan(plan, np.array([0.5, 0.25]), assignment)
        assert report.cases_v1_rounded == 10
        assert report.cases_v2_rounded == 15
        assert report.improvement_pct == pytest.approx(100.0 * 4.3 / 10.2)
        assert report.ztest is not None
        assert report.ztest_degenerate_reason is None
        assert report.cluster_cases == {"a": (250.0, 125.0), "b": (125.0, 187.5)}
        assert report.reallocation == {1: 50.0, 2: 150.0}

    def test_degenerate_reported_not_raised(self):
        plan = make_plan(cases_v1=0.0, cases_v2=0.0)
        assignment = make_assignment({1: "a", 2: "b"}, {"a": 1, "b": 2})
        report = evaluate_plan(plan, np.array([0.0, 0.0]), assignment)
        assert report.ztest is None
        assert "variance" in report.ztest_degenerate_reason
        assert report.cluster_cases == {"a": (0.0, 0.0), "b": (0.0, 0.0)}
        assert report.improvement_pct is None

    def test_report_dict_round_trips_json(self, tmp_path):
        plan = make_plan(cases_v1=10.0, cases_v2=14.0, total=1000)
        assignment = make_assignment({1: "a", 2: "b"}, {"a": 1, "b": 2})
        report = evaluate_plan(plan, np.array([0.5, 0.25]), assignment)
        path = tmp_path / "evaluation.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        assert doc == report_to_dict(report)
        assert doc["improvement_pct"] == 40.0
        assert doc["reallocation"] == {"1": 50.0, "2": 150.0}
        assert doc["cluster_cases"]["a"] == {"cases_v1": 250.0, "cases_v2": 125.0}

    def test_text_rendering(self):
        plan = make_plan(cases_v1=10.0, cases_v2=14.0, total=1000)
        assignment = make_assignment({1: "a", 2: "b"}, {"a": 1, "b": 2})
        report = evaluate_plan(plan, np.array([0.5, 0.25]), assignment)
        text = format_report(report)
        assert "target year 2021" in text
        assert "z-test" in text
        assert "Detection improvement: +40.0%" in text
        assert text.endswith("\n")

    def test_text_rendering_degenerate(self):
        assignment = make_assignment({1: "a", 2: "b"}, {"a": 1, "b": 2})
        report = evaluate_plan(make_plan(cases_v1=0.0, cases_v2=0.0), np.array([0.0, 0.0]), assignment)
        assert "degenerate" in format_report(report)

    def test_misaligned_rates_rejected(self):
        plan = make_plan(cases_v1=10.0, cases_v2=14.0, total=1000)
        assignment = make_assignment({1: "a", 2: "b"}, {"a": 1, "b": 2})
        for rates in (np.array([0.5]), np.array([0.5, 0.25, 0.1])):
            with pytest.raises(ShareMismatch):
                evaluate_plan(plan, rates, assignment)

    def test_unlabeled_plan_geo_rejected(self):
        plan = make_plan(cases_v1=10.0, cases_v2=14.0, total=1000)
        assignment = make_assignment({1: "a"}, {"a": 1})
        with pytest.raises(UnassignedGeo):
            evaluate_plan(plan, np.array([0.5, 0.25]), assignment)

    def test_undefined_reallocation_rendered(self):
        plan = make_plan(v1_tests=(0, 100), cases_v1=5.0, cases_v2=6.0, total=1000)
        assignment = make_assignment({1: "a", 2: "b"}, {"a": 1, "b": 2})
        report = evaluate_plan(plan, np.array([0.5, 0.25]), assignment)
        assert "n/a" in format_report(report)

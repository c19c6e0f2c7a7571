"""Clustering tests: series building, the medoid loop, seeding, and IO.

The hand-checked six-point instance places values 0, 1, 10, 11, 20, 21 on a
line; with k=3 the optimal medoids are the lower member of each pair, and
every tie-break resolves toward the smaller geo_id.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_panel
from leadalloc.cluster import (
    RISK_LABELS,
    ClusterAssignment,
    EmptyInput,
    KTooLarge,
    LengthMismatch,
    SeriesVector,
    _distance_matrix,
    build_series,
    cluster_neighborhoods,
    k_medoids,
    read_assignment,
    seed_medoids,
    series_distance,
    write_assignment,
)
from leadalloc.errors import DataError
from leadalloc.normalize import NormalizedPanel, normalize_panel


def flat_series(geo_id: int, value: float, length: int = 4) -> SeriesVector:
    return SeriesVector(geo_id=geo_id, values=np.full(length, value))


def line_instance() -> list[SeriesVector]:
    return [
        SeriesVector(geo_id=i + 1, values=np.array([v], dtype=float))
        for i, v in enumerate([0.0, 1.0, 10.0, 11.0, 20.0, 21.0])
    ]


def norm_from_values(values: dict) -> NormalizedPanel:
    years = tuple(sorted({year for _, year in values}))
    geo_ids = tuple(sorted({geo for geo, _ in values}))
    return NormalizedPanel(values=dict(values), years=years, geo_ids=geo_ids)


class TestBuildSeries:
    def test_complete_panel_passthrough(self, fixture_panel):
        norm = normalize_panel(fixture_panel)
        series = build_series(norm)
        assert [s.geo_id for s in series] == [101, 102, 103, 104, 105, 106]
        assert all(s.values.shape == (12,) for s in series)

    def test_interior_gap_interpolated(self):
        norm = norm_from_values(
            {(1, 2019): 1.0, (1, 2021): 3.0, (2, 2019): 1.0, (2, 2020): 1.0, (2, 2021): 1.0}
        )
        series = {s.geo_id: s.values for s in build_series(norm)}
        assert series[1].tolist() == [1.0, 2.0, 3.0]

    def test_edge_gap_extends_nearest(self):
        norm = norm_from_values(
            {(1, 2020): 2.0, (1, 2021): 4.0, (2, 2019): 1.0, (2, 2020): 1.0, (2, 2021): 1.0}
        )
        series = {s.geo_id: s.values for s in build_series(norm)}
        assert series[1].tolist() == [2.0, 2.0, 4.0]

    def test_all_gap_geo_rejected(self):
        norm = NormalizedPanel(values={(1, 2020): 1.0}, years=(2020,), geo_ids=(1, 2))
        with pytest.raises(DataError, match="2"):
            build_series(norm)


class TestSeriesDistance:
    def test_hand_value(self):
        a = SeriesVector(1, np.array([0.0, 3.0]))
        b = SeriesVector(2, np.array([4.0, 0.0]))
        assert series_distance(a, b) == 5.0

    def test_zero_for_identical(self):
        a = flat_series(1, 1.5)
        assert series_distance(a, flat_series(2, 1.5)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            series_distance(flat_series(1, 1.0, 3), flat_series(2, 1.0, 4))


def broadcast_distances(series) -> np.ndarray:
    """Reference pairwise distances through one (n, n, years) broadcast."""
    values = np.stack([s.values for s in series])
    diff = values[:, None, :] - values[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=2))


class TestDistanceMatrix:
    def assert_bit_identical(self, series):
        got = _distance_matrix(series)
        want = broadcast_distances(series)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_random_series(self):
        rng = np.random.default_rng(11)
        for n, length in ((2, 1), (7, 17), (60, 17), (33, 40)):
            values = rng.lognormal(0.0, 0.6, size=(n, length))
            self.assert_bit_identical([SeriesVector(g, v) for g, v in enumerate(values)])

    def test_single_series(self):
        series = [SeriesVector(1, np.array([0.7, 1.3, 2.9]))]
        self.assert_bit_identical(series)
        assert _distance_matrix(series).tolist() == [[0.0]]

    def test_duplicate_series(self):
        rng = np.random.default_rng(12)
        base = rng.uniform(0.0, 3.0, size=(4, 17))
        values = np.concatenate([base, base[::-1], base[:1]])
        series = [SeriesVector(g, v) for g, v in enumerate(values)]
        self.assert_bit_identical(series)
        dist = _distance_matrix(series)
        assert dist[0, 7] == 0.0 and dist[0, 8] == 0.0
        assert np.array_equal(dist, dist.T)


class TestKMedoids:
    def test_line_instance_partition(self):
        assignment = k_medoids(line_instance(), 3)
        assert set(assignment.medoids.values()) == {1, 3, 5}
        groups = {}
        for geo, label in assignment.labels.items():
            groups.setdefault(label, set()).add(geo)
        assert sorted(groups.values(), key=min) == [{1, 2}, {3, 4}, {5, 6}]

    def test_medoids_are_members_and_self_assigned(self):
        assignment = k_medoids(line_instance(), 3)
        for label, geo in assignment.medoids.items():
            assert assignment.labels[geo] == label

    def test_cost_matches_final_assignment(self):
        series = line_instance()
        assignment = k_medoids(series, 3)
        by_geo = {s.geo_id: s for s in series}
        expected = sum(
            series_distance(by_geo[geo], by_geo[assignment.medoids[label]])
            for geo, label in assignment.labels.items()
        )
        assert math.isclose(assignment.total_cost, expected, abs_tol=1e-12)
        assert assignment.cost_history[-1] == assignment.total_cost

    def test_input_order_invariance(self):
        forward = k_medoids(line_instance(), 3)
        backward = k_medoids(list(reversed(line_instance())), 3)
        assert forward.labels == backward.labels
        assert forward.medoids == backward.medoids
        assert forward.total_cost == backward.total_cost

    def test_explicit_seeds_respected(self):
        series = line_instance()
        assignment = k_medoids(series, 3, initial_medoids=[1, 3, 5])
        assert set(assignment.medoids.values()) == {1, 3, 5}

    def test_k_equals_n_is_identity(self):
        series = line_instance()
        assignment = k_medoids(series, 6)
        assert set(assignment.medoids.values()) == {1, 2, 3, 4, 5, 6}
        assert assignment.total_cost == 0.0

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            k_medoids(line_instance(), 7)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            k_medoids([], 2)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            k_medoids(line_instance(), 0)

    def test_duplicate_seed_rejected(self):
        with pytest.raises(ValueError):
            k_medoids(line_instance(), 3, initial_medoids=[1, 1, 3])

    def test_unknown_seed_rejected(self):
        with pytest.raises(ValueError):
            k_medoids(line_instance(), 3, initial_medoids=[1, 3, 99])

    def test_custom_cluster_names(self):
        assignment = k_medoids(line_instance(), 3, cluster_names=("a", "b", "c"))
        assert set(assignment.medoids) == {"a", "b", "c"}

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=4,
            max_size=12,
        ),
        st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_cost_history_non_increasing(self, values, k):
        series = [
            SeriesVector(geo_id=i + 1, values=np.array([v], dtype=float))
            for i, v in enumerate(values)
        ]
        assignment = k_medoids(series, k)
        history = assignment.cost_history
        assert all(later <= earlier + 1e-9 for earlier, later in zip(history, history[1:]))


class TestSeeding:
    def test_criteria_pick_distinct_profiles(self):
        # five unambiguous profiles over three years:
        # 1 high flat, 2 low flat, 3 near-average flat, 4 rising, 5 falling
        values = {}
        profiles = {
            1: [3.0, 3.0, 3.0],
            2: [0.2, 0.2, 0.2],
            3: [1.01, 1.0, 0.99],
            4: [0.5, 1.0, 1.5],
            5: [1.5, 1.0, 0.5],
        }
        for geo, levels in profiles.items():
            for year, level in zip((2019, 2020, 2021), levels):
                values[(geo, year)] = level
        seeds = seed_medoids(norm_from_values(values))
        assert seeds == [1, 2, 3, 4, 5]

    def test_seeds_are_distinct_on_fixture(self, fixture_panel):
        seeds = seed_medoids(normalize_panel(fixture_panel))
        assert len(seeds) == 5
        assert len(set(seeds)) == 5


class TestClusterNeighborhoods:
    def test_fixture_labels_match_designed_profiles(self, fixture_panel):
        assignment = cluster_neighborhoods(normalize_panel(fixture_panel))
        assert assignment.labels[101] == "High"
        assert assignment.labels[102] == "Low"
        assert assignment.labels[104] == "Rising"
        assert assignment.labels[105] == "Declining"
        assert assignment.labels[103] == assignment.labels[106] == "Average"

    def test_risk_labels_used_for_default_k(self, fixture_panel):
        assignment = cluster_neighborhoods(normalize_panel(fixture_panel))
        assert tuple(assignment.medoids) == RISK_LABELS

    def test_generic_names_for_other_k(self, fixture_panel):
        assignment = cluster_neighborhoods(normalize_panel(fixture_panel), k=3)
        assert set(assignment.medoids) == {"cluster1", "cluster2", "cluster3"}


class TestAssignmentRoundTrip:
    def test_write_read(self, fixture_panel, tmp_path):
        assignment = cluster_neighborhoods(normalize_panel(fixture_panel))
        csv_path = tmp_path / "clusters.csv"
        json_path = tmp_path / "clusters.json"
        write_assignment(assignment, csv_path, json_path)
        again = read_assignment(csv_path, json_path)
        assert again.labels == assignment.labels
        assert again.medoids == assignment.medoids
        assert again.total_cost == assignment.total_cost
        assert again.n_iter == assignment.n_iter

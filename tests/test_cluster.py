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

from panel_helpers import make_panel
from leadalloc.cluster import (
    RISK_LABELS,
    ClusterAssignment,
    EmptyInput,
    KTooLarge,
    LengthMismatch,
    _distances,
    _within_sums,
    build_series,
    cluster_neighborhoods,
    k_medoids,
    read_assignment,
    seed_medoids,
    write_assignment,
)
from leadalloc.errors import DataError
from leadalloc.normalize import NormalizedPanel, normalize_panel, ols_line


def line_instance() -> tuple[np.ndarray, list[int]]:
    """(series, geo_ids): one one-year series per geo 1..6."""
    return np.array([[0.0], [1.0], [10.0], [11.0], [20.0], [21.0]]), [1, 2, 3, 4, 5, 6]


def norm_from_values(values: dict) -> NormalizedPanel:
    years = tuple(sorted({year for _, year in values}))
    geo_ids = tuple(sorted({geo for geo, _ in values}))
    return NormalizedPanel(values=dict(values), years=years, geo_ids=geo_ids)


class TestBuildSeries:
    def test_complete_panel_passthrough(self, fixture_panel):
        norm = normalize_panel(fixture_panel)
        assert norm.geo_ids == (101, 102, 103, 104, 105, 106)
        assert build_series(norm).shape == (6, 12)

    def test_interior_gap_interpolated(self):
        norm = norm_from_values(
            {(1, 2019): 1.0, (1, 2021): 3.0, (2, 2019): 1.0, (2, 2020): 1.0, (2, 2021): 1.0}
        )
        assert build_series(norm)[0].tolist() == [1.0, 2.0, 3.0]

    def test_edge_gap_extends_nearest(self):
        norm = norm_from_values(
            {(1, 2020): 2.0, (1, 2021): 4.0, (2, 2019): 1.0, (2, 2020): 1.0, (2, 2021): 1.0}
        )
        assert build_series(norm)[0].tolist() == [2.0, 2.0, 4.0]

    def test_all_gap_geo_rejected(self):
        norm = NormalizedPanel(values={(1, 2020): 1.0}, years=(2020,), geo_ids=(1, 2))
        with pytest.raises(DataError, match="2"):
            build_series(norm)


def broadcast_distances(values) -> np.ndarray:
    """Reference pairwise distances through one (n, n, years) broadcast."""
    diff = values[:, None, :] - values[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=2))


class TestDistanceMatrix:
    def assert_bit_identical(self, values):
        want = broadcast_distances(values)
        got = _within_sums(values)
        assert got.shape == (len(values),)
        assert np.array_equal(got.view(np.uint64), np.sum(want, axis=1).view(np.uint64))
        # one full row, as re-centering and seeding compute it
        for i, row in enumerate(values):
            assert np.array_equal(_distances(values, row).view(np.uint64), want[i].view(np.uint64))

    def test_random_series(self):
        rng = np.random.default_rng(11)
        for n, length in ((2, 1), (7, 17), (60, 17), (33, 40)):
            values = rng.lognormal(0.0, 0.6, size=(n, length))
            self.assert_bit_identical(values)

    def test_single_series(self):
        values = np.array([[0.7, 1.3, 2.9]])
        self.assert_bit_identical(values)
        assert _within_sums(values).tolist() == [0.0]

    def test_duplicate_series(self):
        rng = np.random.default_rng(12)
        base = rng.uniform(0.0, 3.0, size=(4, 17))
        values = np.concatenate([base, base[::-1], base[:1]])
        self.assert_bit_identical(values)
        sums = _within_sums(values)
        assert sums[0] == sums[7] == sums[8]
        assert sums[1] == sums[6] and sums[2] == sums[5] and sums[3] == sums[4]


class TestKMedoids:
    def test_line_instance_partition(self):
        assignment = k_medoids(*line_instance(), 3)
        assert set(assignment.medoids.values()) == {1, 3, 5}
        groups = {}
        for geo, label in assignment.labels.items():
            groups.setdefault(label, set()).add(geo)
        assert sorted(groups.values(), key=min) == [{1, 2}, {3, 4}, {5, 6}]

    def test_medoids_are_members_and_self_assigned(self):
        assignment = k_medoids(*line_instance(), 3)
        for label, geo in assignment.medoids.items():
            assert assignment.labels[geo] == label

    def test_cost_matches_final_assignment(self):
        series, geo_ids = line_instance()
        assignment = k_medoids(series, geo_ids, 3)
        by_geo = dict(zip(geo_ids, series))
        expected = sum(
            float(np.linalg.norm(by_geo[geo] - by_geo[assignment.medoids[label]]))
            for geo, label in assignment.labels.items()
        )
        assert math.isclose(assignment.total_cost, expected, abs_tol=1e-12)
        assert assignment.cost_history[-1] == assignment.total_cost

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            k_medoids(np.ones((2, 4)), [1, 2, 3], 1)
        with pytest.raises(LengthMismatch):
            k_medoids(np.ones(3), [1, 2, 3], 1)

    def test_input_order_invariance(self):
        series, geo_ids = line_instance()
        forward = k_medoids(series, geo_ids, 3)
        backward = k_medoids(series[::-1], geo_ids[::-1], 3)
        assert forward.labels == backward.labels
        assert forward.medoids == backward.medoids
        assert forward.total_cost == backward.total_cost

    def test_explicit_seeds_respected(self):
        assignment = k_medoids(*line_instance(), 3, initial_medoids=[1, 3, 5])
        assert set(assignment.medoids.values()) == {1, 3, 5}

    def test_k_equals_n_is_identity(self):
        assignment = k_medoids(*line_instance(), 6)
        assert set(assignment.medoids.values()) == {1, 2, 3, 4, 5, 6}
        assert assignment.total_cost == 0.0

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            k_medoids(*line_instance(), 7)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            k_medoids(np.empty((0, 1)), [], 2)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            k_medoids(*line_instance(), 0)

    def test_duplicate_seed_rejected(self):
        with pytest.raises(ValueError):
            k_medoids(*line_instance(), 3, initial_medoids=[1, 1, 3])

    def test_unknown_seed_rejected(self):
        with pytest.raises(ValueError):
            k_medoids(*line_instance(), 3, initial_medoids=[1, 3, 99])

    def test_custom_cluster_names(self):
        assignment = k_medoids(*line_instance(), 3, cluster_names=("a", "b", "c"))
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
        series = np.array(values, dtype=float)[:, None]
        assignment = k_medoids(series, list(range(1, len(values) + 1)), k)
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

    def test_row_reductions_match_per_series_criteria(self):
        """The seeds equal those of the per-series criteria they replaced:
        np.mean, the distance to a flat 1.0 and ols_line on each series,
        including duplicated series, whose ties go to the smaller geo_id."""
        rng = np.random.default_rng(23)
        for _ in range(200):
            n, years = int(rng.integers(5, 40)), int(rng.integers(1, 18))
            values = rng.lognormal(0.0, 0.5, size=(n, years))
            values[rng.random(n) < 0.2] = values[0]
            geo_ids = sorted(rng.choice(np.arange(100, 999), size=n, replace=False).tolist())
            norm = norm_from_values(
                {(g, 2000 + j): float(v) for g, row in zip(geo_ids, values) for j, v in enumerate(row)}
            )
            series = dict(zip(norm.geo_ids, build_series(norm)))
            means = {g: float(np.mean(s)) for g, s in series.items()}
            flat = {g: float(np.sqrt(np.sum((s - 1.0) ** 2))) for g, s in series.items()}
            slopes = {
                g: ols_line(np.arange(years, dtype=float), s)[0] if years > 1 else 0.0
                for g, s in series.items()
            }
            expected = []
            for score in (means, {g: -v for g, v in means.items()}, {g: -v for g, v in flat.items()},
                          slopes, {g: -v for g, v in slopes.items()}):
                candidates = [g for g in geo_ids if g not in expected]
                expected.append(max(candidates, key=lambda g: (score[g], -g)))
            assert seed_medoids(norm) == expected

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

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

from panel_helpers import add_bom, make_panel, normalized_panel
from test_cluster_reference import profile_panel
from leadalloc import cluster
from leadalloc.cluster import (
    RISK_LABELS,
    ClusterAssignment,
    EmptyInput,
    KTooLarge,
    LengthMismatch,
    _distances,
    _medoid,
    _profile_seeds,
    build_series,
    cluster_neighborhoods,
    k_medoids,
    read_assignment,
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
    return normalized_panel(values, years, geo_ids)


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
        norm = normalized_panel({(1, 2020): 1.0}, years=(2020,), geo_ids=(1, 2))
        with pytest.raises(DataError, match="2"):
            build_series(norm)


def broadcast_distances(values) -> np.ndarray:
    """Reference pairwise distances through one (n, n, years) broadcast."""
    diff = values[:, None, :] - values[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=2))


def reference_medoid(values) -> int:
    """The first row with the smallest sum of the full broadcast matrix."""
    return int(np.argmin(np.sum(broadcast_distances(values), axis=1)))


class TestMedoid:
    def test_rows_match_the_broadcast(self):
        rng = np.random.default_rng(11)
        for n, length in ((2, 1), (7, 17), (60, 17), (33, 40)):
            values = rng.lognormal(0.0, 0.6, size=(n, length))
            want = broadcast_distances(values)
            # one full row, as the exact sums, seeding and assignment compute it
            for i, row in enumerate(values):
                assert np.array_equal(_distances(values, row).view(np.uint64), want[i].view(np.uint64))
            assert _medoid(values) == reference_medoid(values)

    def test_agrees_with_the_full_matrix_argmin(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n, length = rng.integers(1, 120), rng.integers(1, 25)
            values = rng.lognormal(0.0, 0.6, size=(n, length))
            assert _medoid(values) == reference_medoid(values)

    def test_single_row(self):
        assert _medoid(np.array([[0.7, 1.3, 2.9]])) == 0

    def test_all_rows_equal(self):
        assert _medoid(np.full((9, 17), 1.3)) == 0

    def test_duplicate_rows_tie_to_the_smallest_index(self):
        rng = np.random.default_rng(12)
        base = rng.uniform(0.0, 3.0, size=(4, 17))
        values = np.concatenate([base, base[::-1], base[:1]])
        assert _medoid(values) == reference_medoid(values)
        # the line 0, 1, 1, 2 ties rows 1 and 2, which have equal sums
        assert _medoid(np.array([[0.0], [1.0], [1.0], [2.0]])) == 1

    def test_rows_one_ulp_apart(self):
        rng = np.random.default_rng(14)
        for n in (2, 5, 40):
            values = np.full((n, 17), 1.3)
            up = rng.random(values.shape) < 0.5
            values[up] = np.nextafter(1.3, 2.0)
            assert _medoid(values) == reference_medoid(values)

    def test_large_common_offset(self):
        rng = np.random.default_rng(15)
        for n in (3, 50, 200):
            values = 1e6 + rng.normal(0.0, 1.0, size=(n, 17))
            assert _medoid(values) == reference_medoid(values)

    def test_random_scales(self):
        rng = np.random.default_rng(16)
        for n in (3, 50, 200):
            scales = 10.0 ** rng.uniform(-6.0, 2.0, size=(n, 1))
            values = rng.normal(0.0, 1.0, size=(n, 17)) * scales
            assert _medoid(values) == reference_medoid(values)
            shifted = values * 1e-6 + 5.0
            assert _medoid(shifted) == reference_medoid(shifted)

    def test_few_rows_are_summed_exactly(self, monkeypatch):
        """k=1 finds the 1-medoid of 1,000 series twice, for the seed and for
        the re-centering; at most 5% of those 2,000 rows are summed exactly."""
        norm = profile_panel(1000, seed=67)
        series = build_series(norm)
        calls = []

        def counted(values, row):
            calls.append(len(values))
            return _distances(values, row)

        monkeypatch.setattr(cluster, "_distances", counted)
        assignment = k_medoids(series, norm.geo_ids, 1)
        # each assignment pass computes one row, the distances to the medoid
        assert len(calls) - len(assignment.cost_history) <= 0.05 * 2000

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_series_rejected(self, bad):
        series, geo_ids = line_instance()
        series[3, 0] = bad
        with pytest.raises(DataError, match="geo 4"):
            k_medoids(series, geo_ids, 2)


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
        norm = norm_from_values(values)
        seeds = _profile_seeds(build_series(norm), norm.geo_ids)
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
            assert _profile_seeds(build_series(norm), norm.geo_ids) == expected

    def test_seeds_are_distinct_on_fixture(self, fixture_panel):
        norm = normalize_panel(fixture_panel)
        seeds = _profile_seeds(build_series(norm), norm.geo_ids)
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
    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "with_a_bom"])
    def test_write_read(self, fixture_panel, tmp_path, bom):
        assignment = cluster_neighborhoods(normalize_panel(fixture_panel))
        csv_path = tmp_path / "clusters.csv"
        json_path = tmp_path / "clusters.json"
        write_assignment(assignment, csv_path, json_path)
        if bom:
            add_bom(csv_path, json_path)
        again = read_assignment(csv_path, json_path)
        assert again.labels == assignment.labels
        assert again.medoids == assignment.medoids
        assert again.total_cost == assignment.total_cost
        assert again.n_iter == assignment.n_iter

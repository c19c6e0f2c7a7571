"""Clustering on demand against the full-distance-matrix clustering it
replaced, and the array-backed normalized panel against the dict it held.

The reference functions below are the earlier implementations, kept as the
oracle: series built by walking the {(geo, year): rate} dict, one (n, n)
distance matrix filled from its upper triangle, farthest-first seeds and
re-centering read from that matrix, and normalized.csv written by sorting
the dict. The current code must agree with them bit for bit: labels,
medoids in order, iteration counts, cost histories and file bytes.
"""

import csv
import tracemalloc

import numpy as np
import pytest

from leadalloc.cluster import (
    RISK_LABELS,
    _farthest_first_seeds,
    build_series,
    cluster_neighborhoods,
    k_medoids,
)
from leadalloc.errors import DataError
from leadalloc.normalize import NormalizedPanel, normalize_panel, write_normalized
from panel_helpers import normalized_panel, random_panel


def reference_build_series(values, years, geo_ids):
    row = {geo: i for i, geo in enumerate(geo_ids)}
    col = {year: j for j, year in enumerate(years)}
    series = np.zeros((len(geo_ids), len(years)))
    defined = np.zeros(series.shape, dtype=bool)
    for (geo, year), value in values.items():
        i, j = row.get(geo), col.get(year)
        if i is not None and j is not None:
            series[i, j] = value
            defined[i, j] = True
    positions = np.arange(len(years), dtype=float)
    for i, geo in enumerate(geo_ids):
        known = np.flatnonzero(defined[i])
        if not known.size:
            raise DataError(f"geo {geo} has no defined rate in any year; cannot build series")
        series[i] = np.interp(positions, positions[known], series[i, known])
    return series


def reference_distance_matrix(series):
    dist = np.empty((len(series), len(series)))
    for i, row in enumerate(series):
        dist[i, i:] = dist[i:, i] = np.sqrt(np.sum((row - series[i:]) ** 2, axis=1))
    return dist


def reference_farthest_first_seeds(dist, k):
    chosen = [int(np.argmin(np.sum(dist, axis=1)))]
    while len(chosen) < k:
        nearest = np.min(dist[:, chosen], axis=1)
        nearest[chosen] = -1.0
        chosen.append(int(np.argmax(nearest)))
    return chosen


def reference_k_medoids(series, geo_ids, k, initial_medoids=None, max_iter=100, cluster_names=None):
    """(labels, medoids, n_iter, cost_history) of the full-matrix k-medoids."""
    order = sorted(range(len(geo_ids)), key=lambda i: geo_ids[i])
    series = series[order]
    geo_ids = [geo_ids[i] for i in order]
    n = len(geo_ids)
    index_of = {g: i for i, g in enumerate(geo_ids)}
    dist = reference_distance_matrix(series)
    if initial_medoids is None:
        medoids = reference_farthest_first_seeds(dist, k)
    else:
        medoids = [index_of[g] for g in initial_medoids]
    if cluster_names is None:
        cluster_names = tuple(f"cluster{i + 1}" for i in range(k))

    def assign(current):
        slots = np.argmin(dist[:, current], axis=1)
        for slot, m in enumerate(current):
            slots[m] = slot
        return slots

    history = []
    n_iter = 0
    while True:
        slots = assign(medoids)
        history.append(float(np.sum(dist[np.arange(n), [medoids[s] for s in slots]])))
        if n_iter >= max_iter:
            break
        new_medoids = []
        for slot in range(k):
            members = np.flatnonzero(slots == slot)
            within = np.sum(dist[np.ix_(members, members)], axis=1)
            new_medoids.append(int(members[np.argmin(within)]))
        n_iter += 1
        if new_medoids == medoids:
            break
        medoids = new_medoids
    labels = {geo_ids[i]: cluster_names[slots[i]] for i in range(n)}
    medoid_items = [(cluster_names[slot], geo_ids[m]) for slot, m in enumerate(medoids)]
    return labels, medoid_items, n_iter, history


def reference_profile_seeds(series, geo_ids):
    means = np.mean(series, axis=1)
    flat_dist = np.sqrt(np.sum((series - 1.0) ** 2, axis=1))
    years = np.arange(series.shape[1], dtype=float)
    years -= np.mean(years)
    sxx = np.sum(years**2)
    slopes = np.sum(years * (series - means[:, None]), axis=1) / sxx if sxx else np.zeros_like(means)
    seeds = []
    for criterion in (means, -means, -flat_dist, slopes, -slopes):
        score = dict(zip(geo_ids, criterion.tolist()))
        candidates = [g for g in geo_ids if g not in seeds]
        seeds.append(max(candidates, key=lambda g: (score[g], -g)))
    return seeds


def reference_cluster(values, years, geo_ids, k):
    series = reference_build_series(values, years, geo_ids)
    if k == 5:
        seeds = reference_profile_seeds(series, list(geo_ids))
        return reference_k_medoids(series, list(geo_ids), k, seeds, cluster_names=RISK_LABELS)
    return reference_k_medoids(series, list(geo_ids), k)


def reference_write_normalized(values, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["geo_id", "year", "normalized_rate"])
        for (geo, year), value in sorted(values.items()):
            writer.writerow([geo, year, repr(value)])


def outcome(assignment):
    """The reference's tuple, from a ClusterAssignment; floats by their bits."""
    return (
        assignment.labels,
        list(assignment.medoids.items()),
        assignment.n_iter,
        [c.hex() for c in assignment.cost_history],
    )


def reference_outcome(labels, medoids, n_iter, history):
    return labels, medoids, n_iter, [c.hex() for c in history]


def profile_shapes(n_years):
    """The five risk profiles' level over the years: high, low, average,
    rising and declining."""
    t = np.linspace(0.0, 1.0, n_years)
    flat = np.ones(n_years)
    return np.stack([2.5 * flat, 0.4 * flat, flat, 0.5 + 1.5 * t, 2.0 - 1.5 * t])


def random_normalized(rng):
    """(values dict, years, geo_ids): profile-shaped series with gaps, and
    some series repeated exactly, so that distances tie."""
    n, n_years = int(rng.integers(5, 70)), int(rng.integers(1, 18))
    geo_ids = tuple(sorted(rng.choice(np.arange(100, 5000), size=n, replace=False).tolist()))
    years = tuple(range(2005, 2005 + n_years))
    series = profile_shapes(n_years)[rng.integers(0, 5, size=n)] * rng.lognormal(0.0, 0.3, size=(n, n_years))
    repeated = rng.random(n) < 0.2
    series[repeated] = series[rng.integers(0, n, size=int(repeated.sum()))]
    defined = rng.random((n, n_years)) >= rng.choice([0.0, 0.1, 0.4])
    defined[~defined.any(axis=1), int(rng.integers(0, n_years))] = True
    values = {
        (geo_ids[i], years[j]): float(series[i, j]) for i, j in zip(*np.nonzero(defined))
    }
    return values, years, geo_ids


class TestClusterAgainstFullMatrix:
    def test_random_panels_at_every_k(self):
        rng = np.random.default_rng(41)
        for _ in range(120):
            values, years, geo_ids = random_normalized(rng)
            norm = normalized_panel(values, years, geo_ids)
            assert np.array_equal(
                build_series(norm).view(np.uint64),
                reference_build_series(values, years, geo_ids).view(np.uint64),
            )
            for k in range(2, min(7, len(geo_ids)) + 1):
                want = reference_outcome(*reference_cluster(values, years, geo_ids, k))
                assert outcome(cluster_neighborhoods(norm, k)) == want

    def test_normalized_random_panels(self):
        """The arrays normalize_panel builds cluster as its dict did."""
        rng = np.random.default_rng(43)
        compared = 0
        for _ in range(300):
            panel = random_panel(rng)
            try:
                norm = normalize_panel(panel)
                build_series(norm)
            except DataError:  # a zero-mean year, or a geo with no defined rate
                continue
            for k in (2, 3, 5):
                if k <= len(norm.geo_ids) and (k != 5 or len(norm.geo_ids) >= 5):
                    want = reference_cluster(norm.values, norm.years, norm.geo_ids, k)
                    assert outcome(cluster_neighborhoods(norm, k)) == reference_outcome(*want)
                    compared += 1
        assert compared >= 100

    def test_k_medoids_with_given_seeds_and_iteration_caps(self):
        rng = np.random.default_rng(47)
        for _ in range(150):
            n, n_years = int(rng.integers(2, 50)), int(rng.integers(1, 20))
            series = rng.lognormal(0.0, 0.6, size=(n, n_years))
            series[rng.random(n) < 0.3] = series[0]
            geo_ids = rng.permutation(np.arange(1, 4 * n, 4)[:n]).tolist()
            k = int(rng.integers(1, min(n, 8) + 1))
            seeds = rng.choice(geo_ids, size=k, replace=False).tolist() if rng.random() < 0.5 else None
            max_iter = int(rng.choice([0, 1, 2, 100]))
            got = k_medoids(series, geo_ids, k, initial_medoids=seeds, max_iter=max_iter)
            want = reference_k_medoids(series, geo_ids, k, seeds, max_iter=max_iter)
            assert outcome(got) == reference_outcome(*want)
            assert got.total_cost == got.cost_history[-1]

    def test_all_series_equal(self):
        """Every distance is 0, so every assignment and re-centering ties."""
        series = np.full((9, 4), 1.25)
        geo_ids = list(range(10, 19))
        for k in (1, 2, 5, 9):
            got = k_medoids(series, geo_ids, k)
            assert outcome(got) == reference_outcome(*reference_k_medoids(series, geo_ids, k))

    def test_farthest_first_seeds(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            series = rng.lognormal(0.0, 0.5, size=(n, int(rng.integers(1, 18))))
            series[rng.random(n) < 0.2] = series[-1]
            k = int(rng.integers(1, n + 1))
            want = reference_farthest_first_seeds(reference_distance_matrix(series), k)
            assert _farthest_first_seeds(series, k) == want


class TestNormalizedArrays:
    def test_write_matches_the_sorted_dict(self, tmp_path):
        rng = np.random.default_rng(59)
        for trial in range(60):
            values, years, geo_ids = random_normalized(rng)
            if trial % 2:  # a hand-built panel need not list its ids in order
                years = tuple(rng.permutation(years).tolist())
                geo_ids = tuple(rng.permutation(geo_ids).tolist())
            norm = normalized_panel(values, years, geo_ids)
            write_normalized(norm, tmp_path / "got.csv")
            reference_write_normalized(values, tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_values_are_built_year_by_year_from_the_arrays(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            values, years, geo_ids = random_normalized(rng)
            norm = normalized_panel(values, years, geo_ids)
            assert "values" not in vars(norm)
            assert norm.values == values
            assert list(norm.values) == sorted(values, key=lambda cell: (cell[1], geo_ids.index(cell[0])))
            assert int(norm.defined.sum()) == len(values)

    def test_arrays_are_read_only_and_checked(self):
        norm = normalized_panel({(1, 2020): 0.5, (2, 2021): 1.5}, years=(2020, 2021), geo_ids=(1, 2))
        assert norm.rates.tolist() == [[0.5, 0.0], [0.0, 1.5]]
        assert norm.defined.tolist() == [[True, False], [False, True]]
        with pytest.raises(ValueError):
            norm.rates[0, 0] = 2.0
        with pytest.raises(AttributeError):
            norm.years = (2020,)
        with pytest.raises(ValueError, match="2 geos x 1 years"):
            NormalizedPanel(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool), (2020,), (1, 2))


def profile_panel(n_geos, seed):
    """A normalized panel of ``n_geos`` series drawn from the five profiles,
    17 years with 3% of cells undefined."""
    rng = np.random.default_rng(seed)
    rates = profile_shapes(17)[rng.integers(0, 5, size=n_geos)] * rng.lognormal(0.0, 0.2, size=(n_geos, 17))
    defined = rng.random(rates.shape) >= 0.03
    defined[:, 0] = True
    rates[~defined] = 0.0
    return NormalizedPanel(rates, defined, range(2005, 2022), range(100, 100 + n_geos))


@pytest.mark.parametrize("k", [5, 3])
def test_clustering_never_holds_an_n_by_n_matrix(k):
    n = 1000
    norm = profile_panel(n, seed=67)
    tracemalloc.start()
    try:
        cluster_neighborhoods(norm, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_recentering_holds_no_cluster_block():
    """k=1 puts all 1,000 series in one cluster, whose (m, m) block would be 8 MB."""
    norm = profile_panel(1000, seed=67)
    series = build_series(norm)
    tracemalloc.start()
    try:
        k_medoids(series, norm.geo_ids, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20

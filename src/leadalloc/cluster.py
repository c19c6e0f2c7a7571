"""Risk-profile clustering of neighborhood rate trajectories.

Neighborhoods are grouped by k-medoids over their mean-normalized rate
series. Medoids are actual neighborhoods, which keeps every cluster center
interpretable as a real place. The five seeded profiles are High, Low,
Average, Rising, and Declining; each seed is the neighborhood that best
embodies its criterion, and the profile label follows the cluster through
medoid updates, not the seed neighborhood itself.

Everything here is deterministic: seeding is criterion-driven, every tie
breaks toward the smaller geo_id, and no randomness is involved anywhere.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .normalize import NormalizedPanel

RISK_LABELS = ("High", "Low", "Average", "Rising", "Declining")

DEFAULT_MAX_ITER = 100


class LengthMismatch(DataError):
    pass


class KTooLarge(DataError):
    pass


class EmptyInput(DataError):
    pass


class InsufficientNeighborhoods(DataError):
    pass


@dataclass(frozen=True, eq=False)
class SeriesVector:
    """One neighborhood's normalized rate series, gap-filled to full length."""

    geo_id: int
    values: np.ndarray


@dataclass(frozen=True)
class ClusterAssignment:
    labels: dict[int, str]  # geo_id -> cluster label
    medoids: dict[str, int]  # cluster label -> medoid geo_id
    total_cost: float
    n_iter: int
    cost_history: tuple[float, ...]

    @property
    def geo_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.labels))


def build_series(norm: NormalizedPanel) -> list[SeriesVector]:
    """Gap-fill each neighborhood's series to the panel's full year span.

    Interior gaps are linearly interpolated; gaps at either end take the
    nearest defined value. Filling preserves trend shape, which is what the
    distance metric needs to see.
    """
    row = {geo: i for i, geo in enumerate(norm.geo_ids)}
    col = {year: j for j, year in enumerate(norm.years)}
    values = np.zeros((len(norm.geo_ids), len(norm.years)))
    defined = np.zeros(values.shape, dtype=bool)
    for (geo, year), value in norm.values.items():
        i, j = row.get(geo), col.get(year)
        if i is not None and j is not None:
            values[i, j] = value
            defined[i, j] = True
    positions = np.arange(len(norm.years), dtype=float)
    for i, geo in enumerate(norm.geo_ids):
        known = np.flatnonzero(defined[i])
        if not known.size:
            raise DataError(f"geo {geo} has no defined rate in any year; cannot build series")
        values[i] = np.interp(positions, positions[known], values[i, known])
    return [SeriesVector(geo, filled) for geo, filled in zip(norm.geo_ids, values)]


def _distance_matrix(series: list[SeriesVector]) -> np.ndarray:
    """Pairwise Euclidean distances, filled one row of the upper triangle at
    a time and mirrored below the diagonal.

    Each element takes the same subtraction, square, sum over years and
    square root as a full (n, n, years) broadcast, so the matrix is
    bit-identical to it: (a - b)**2 equals (b - a)**2 exactly, so each
    mirrored element is the one the broadcast computes. The working memory
    stays at one (n, years) block instead of two (n, n, years) arrays.
    """
    values = np.stack([s.values for s in series])
    dist = np.empty((len(series), len(series)))
    for i, row in enumerate(values):
        dist[i, i:] = dist[i:, i] = np.sqrt(np.sum((row - values[i:]) ** 2, axis=1))
    return dist


def _farthest_first_seeds(dist: np.ndarray, k: int) -> list[int]:
    """Deterministic seed indices: the 1-medoid, then maximin additions."""
    chosen = [int(np.argmin(np.sum(dist, axis=1)))]
    while len(chosen) < k:
        nearest = np.min(dist[:, chosen], axis=1)
        nearest[chosen] = -1.0  # already selected
        chosen.append(int(np.argmax(nearest)))
    return chosen


def k_medoids(
    series,
    k: int,
    initial_medoids: list[int] | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    cluster_names: tuple[str, ...] | None = None,
) -> ClusterAssignment:
    """Alternating k-medoids: assign to nearest medoid, re-center, repeat.

    Stops when the medoid set is unchanged between iterations or after
    ``max_iter`` update steps. The per-iteration total cost (sum of member
    distances to their medoid) never increases; the history is kept on the
    result so callers can check that.

    With ``initial_medoids`` omitted, seeds come from a deterministic
    farthest-first traversal. Each cluster keeps the name of its seed slot,
    so with the profile-criterion seeds the High cluster is the one grown
    from the High seed even if its medoid later moves.
    """
    series = sorted(series, key=lambda s: s.geo_id)
    n = len(series)
    if n == 0:
        raise EmptyInput("no series to cluster")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise KTooLarge(f"k={k} exceeds the {n} series available")
    lengths = {s.values.shape[0] for s in series}
    if len(lengths) > 1:
        raise LengthMismatch(f"series lengths differ: {sorted(lengths)}")

    geo_ids = [s.geo_id for s in series]
    index_of = {g: i for i, g in enumerate(geo_ids)}
    dist = _distance_matrix(series)

    if initial_medoids is None:
        medoids = _farthest_first_seeds(dist, k)
    else:
        if len(initial_medoids) != k:
            raise ValueError(f"expected {k} initial medoids, got {len(initial_medoids)}")
        if len(set(initial_medoids)) != k:
            raise ValueError("initial medoids must be distinct")
        unknown = [g for g in initial_medoids if g not in index_of]
        if unknown:
            raise ValueError(f"initial medoids not in input set: {unknown}")
        medoids = [index_of[g] for g in initial_medoids]

    if cluster_names is None:
        cluster_names = tuple(f"cluster{i + 1}" for i in range(k))
    if len(cluster_names) != k:
        raise ValueError(f"expected {k} cluster names, got {len(cluster_names)}")

    def assign(current: list[int]) -> np.ndarray:
        slots = np.argmin(dist[:, current], axis=1)
        # a medoid always belongs to its own cluster, even under distance ties
        for slot, m in enumerate(current):
            slots[m] = slot
        return slots

    history: list[float] = []
    n_iter = 0
    while True:
        slots = assign(medoids)
        cost = float(np.sum(dist[np.arange(n), [medoids[s] for s in slots]]))
        history.append(cost)
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
    medoid_map = {cluster_names[slot]: geo_ids[m] for slot, m in enumerate(medoids)}
    return ClusterAssignment(
        labels=labels,
        medoids=medoid_map,
        total_cost=history[-1],
        n_iter=n_iter,
        cost_history=tuple(history),
    )


def seed_medoids(norm: NormalizedPanel) -> list[int]:
    """Pick the five profile seeds from a normalized panel.

    In order: highest mean level (High), lowest mean level (Low), series
    closest to a flat 1.0 (Average), steepest upward trend (Rising),
    steepest downward trend (Declining). Seeds are forced distinct by
    taking each criterion's best not-yet-chosen neighborhood; all ties
    break toward the smaller geo_id.
    """
    return _profile_seeds(build_series(norm))


def _profile_seeds(series: list[SeriesVector]) -> list[int]:
    """``seed_medoids`` on built series; each criterion is a row reduction."""
    if len(series) < 5:
        raise InsufficientNeighborhoods(
            f"need at least 5 neighborhoods to seed profiles, have {len(series)}"
        )
    geo_ids = [s.geo_id for s in series]
    values = np.stack([s.values for s in series])
    means = np.mean(values, axis=1)
    flat_dist = np.sqrt(np.sum((values - 1.0) ** 2, axis=1))
    # least-squares slope of each row on the year positions; 0 for one year
    years = np.arange(values.shape[1], dtype=float)
    years -= np.mean(years)
    sxx = np.sum(years**2)
    slopes = np.sum(years * (values - means[:, None]), axis=1) / sxx if sxx else np.zeros_like(means)
    seeds: list[int] = []
    for criterion in (means, -means, -flat_dist, slopes, -slopes):  # High .. Declining
        score = dict(zip(geo_ids, criterion.tolist()))
        candidates = [g for g in geo_ids if g not in seeds]
        seeds.append(max(candidates, key=lambda g: (score[g], -g)))
    return seeds


def cluster_neighborhoods(
    norm: NormalizedPanel,
    k: int = 5,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ClusterAssignment:
    """Cluster a normalized panel into risk profiles.

    With the default k=5 the profile-criterion seeds and risk labels are
    used; any other k falls back to farthest-first seeding with generic
    cluster names, since the five named criteria only define five seeds.
    """
    series = build_series(norm)
    if k == 5:
        seeds = _profile_seeds(series)
        return k_medoids(
            series, k, initial_medoids=seeds, max_iter=max_iter, cluster_names=RISK_LABELS
        )
    return k_medoids(series, k, max_iter=max_iter)


def write_assignment(assignment: ClusterAssignment, csv_path: str | Path, json_path: str | Path) -> None:
    medoid_geos = set(assignment.medoids.values())
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["geo_id", "label", "is_medoid"])
        for geo in sorted(assignment.labels):
            writer.writerow([geo, assignment.labels[geo], int(geo in medoid_geos)])
    doc = {
        "medoids": {label: geo for label, geo in sorted(assignment.medoids.items())},
        "total_cost": assignment.total_cost,
        "n_iter": assignment.n_iter,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_assignment(csv_path: str | Path, json_path: str | Path) -> ClusterAssignment:
    labels: dict[int, str] = {}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            labels[int(row["geo_id"])] = row["label"]
    with open(json_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    total_cost = float(doc["total_cost"])
    if not math.isfinite(total_cost):
        raise ValueError(f"{json_path} holds a total_cost that is not a finite number")
    return ClusterAssignment(
        labels=labels,
        medoids={label: int(geo) for label, geo in doc["medoids"].items()},
        total_cost=total_cost,
        n_iter=int(doc["n_iter"]),
        cost_history=(),
    )

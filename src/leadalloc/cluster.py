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

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, write_json, write_rows
from .normalize import NormalizedPanel

RISK_LABELS = ("High", "Low", "Average", "Rising", "Declining")


@dataclass(frozen=True)
class ClusterAssignment:
    labels: dict[int, str]  # geo_id -> cluster label
    medoids: dict[str, int]  # cluster label -> medoid geo_id, in cluster order
    total_cost: float
    n_iter: int
    cost_history: tuple[float, ...]


def build_series(norm: NormalizedPanel) -> np.ndarray:
    """Each neighborhood's series gap-filled to the panel's full year span.

    Returns a (geo x year) float array, rows in ``norm.geo_ids`` order.
    Interior gaps are linearly interpolated; gaps at either end take the
    nearest defined value. Filling preserves trend shape, which is what the
    distance metric needs to see.
    """
    defined = norm.defined
    empty = np.flatnonzero(~defined.any(axis=1))
    if empty.size:
        geo = norm.geo_ids[empty[0]]
        raise DataError(f"geo {geo} has no defined rate in any year; cannot build series")
    values = np.array(norm.rates)
    positions = np.arange(len(norm.years), dtype=float)
    # np.interp returns a defined value itself, so complete rows are kept as they are
    for i in np.flatnonzero(~defined.all(axis=1)).tolist():
        known = np.flatnonzero(defined[i])
        values[i] = np.interp(positions, positions[known], values[i, known])
    return values


def _distances(values: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Euclidean distance from one series to each row of ``values``.

    Every exact distance in this module comes from here (``_medoid``'s
    filter only bounds them): a subtraction, a square, a sum over the years
    of one contiguous row (``np.sum`` calls ``np.add.reduce``) and a square
    root, as one (n, n, years) broadcast computes each element. (a - b)**2
    equals (b - a)**2 exactly, so d(i, j) and d(j, i) are the same float
    whichever of the two rows is subtracted.
    """
    return np.sqrt(np.add.reduce((row - values) ** 2, axis=1))


# Gram products are formed a few rows at a time, this many floats or one row
_CHUNK_FLOATS = 2**14


def _medoid(values: np.ndarray) -> int:
    """Index of the row with the smallest distance sum to every row of
    ``values``: ``np.argmin`` over each row's ``np.sum(_distances(values,
    row))``, bit for bit, ties to the smallest index. Filter, then verify.

    *Filter.* Each row gets an approximate sum S~_i from Gram products of the
    rows c less their column means (a shift leaves distances as they are
    and keeps cancellation small): d~^2 = |c_i|^2 + |c_j|^2 - 2 c_i.c_j,
    clipped at 0, for a few rows at a time, so no (m, m) block is held. A
    margin M_i bounds |S~_i - S_i|, where S_i is the exact sum. The row with
    the smallest S_i then has S~_i - M_i <= S_i <= S_j <= S~_j + M_j for
    every j, and so has every row tied with it.

    *Verify.* Only the rows that pass that test are summed exactly, each as
    one contiguous full row of ``_distances``, and the first smallest wins.

    *The margin.* Take u = eps/2, y years, T = |c_i|^2 + |c_j|^2 and D the
    real distance of rows i and j. The rounding bounds for a sum and a dot
    product of y terms put the Gram d~^2 within (2y + 4)u T of
    |c_i - c_j|^2, and the exact path's sum of squared differences within
    (y + 3)u D^2 <= (2y + 6)u T of D^2. As |sqrt(p) - sqrt(q)| <= sqrt(|p - q|),
    the two distances of a pair differ, before their square roots are
    rounded, by at most sqrt((y + 2) eps T) + sqrt((y + 3) eps T), which is
    below sqrt(8 (y + 4) eps T) by a factor over sqrt(2); that room covers
    the u (|c_i| + |c_j|) by which centering can move a distance, and the
    rounding of the norms. With sqrt(T) <= |c_i| + |c_j|, the pairs of row i
    differ by at most P_i = sqrt(8 (y + 4) eps) (m |c_i| + sum_j |c_j|) in
    all. Rounding m square roots and summing m terms in any order moves
    each of the two sums by at most m u times the sum of its terms, which
    is at most S~_i + 2 P_i. So M_i = P_i + 4 m eps (S~_i + P_i) bounds
    |S~_i - S_i|, with room for the rounding of M_i and of the test. A margin
    that is not finite keeps every row.
    """
    m, years = values.shape
    centered = values - np.mean(values, axis=0)
    squares = np.sum(centered**2, axis=1)
    approx = np.empty(m)
    # einsum, not a BLAS product: BLAS's buffers and kernel code would raise
    # the peak RSS of a run by about 0.5 MB; a contiguous transpose keeps
    # einsum's inner loop on the long axis
    transposed = np.ascontiguousarray(centered.T)
    step = max(1, _CHUNK_FLOATS // m)
    for start in range(0, m, step):
        stop = start + step
        block = np.einsum("ik,kj->ij", centered[start:stop], transposed)
        block *= -2.0
        block += squares[start:stop, None]
        block += squares
        np.maximum(block, 0.0, out=block)
        approx[start:stop] = np.sum(np.sqrt(block, out=block), axis=1)
    norms = np.sqrt(squares)
    eps = np.finfo(float).eps
    pairs = math.sqrt(8 * (years + 4) * eps) * (m * norms + np.sum(norms))
    margin = pairs + 4 * m * eps * (approx + pairs)
    # NaN compares false, so a margin that is not finite keeps every row
    candidates = np.flatnonzero(~(approx - margin > np.min(approx + margin)))
    exact = [np.sum(_distances(values, values[i])) for i in candidates]
    return int(candidates[np.argmin(exact)])


def _farthest_first_seeds(values: np.ndarray, k: int) -> list[int]:
    """Deterministic seed indices: the 1-medoid, then maximin additions.

    The 1-medoid comes from ``_medoid`` and a seed's distances are computed
    when it is chosen, so no (n, n) matrix is held.
    """
    chosen = [_medoid(values)]
    nearest = np.full(len(values), np.inf)
    while len(chosen) < k:
        nearest = np.minimum(nearest, _distances(values, values[chosen[-1]]))
        candidates = nearest.copy()
        candidates[chosen] = -1.0  # already selected
        chosen.append(int(np.argmax(candidates)))
    return chosen


def k_medoids(
    series: np.ndarray,
    geo_ids,
    k: int,
    initial_medoids: list[int] | None = None,
    max_iter: int = 100,
    cluster_names: tuple[str, ...] | None = None,
) -> ClusterAssignment:
    """Alternating k-medoids: assign to nearest medoid, re-center, repeat.

    ``series`` is a (geo x year) array, one row per entry of ``geo_ids``.
    Stops when the medoid set is unchanged between iterations or after
    ``max_iter`` update steps. The per-iteration total cost (sum of member
    distances to their medoid) never increases; the history is kept on the
    result so callers can check that.

    Each iteration computes the distances of every series to the k medoids,
    for both the assignment and the cost, and re-centers each cluster on its
    members' ``_medoid``. No (n, n) matrix is held, nor one cluster's (m, m)
    block. Series that are not all finite are a DataError: no margin can
    certify their medoid.

    With ``initial_medoids`` omitted, seeds come from a deterministic
    farthest-first traversal. Each cluster keeps the name of its seed slot,
    so with the profile-criterion seeds the High cluster is the one grown
    from the High seed even if its medoid later moves.
    """
    geo_ids = list(geo_ids)
    n = len(geo_ids)
    if n == 0:
        raise DataError("no series to cluster")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise DataError(f"k={k} exceeds the {n} series available")
    values = np.asarray(series, dtype=float)
    if values.ndim != 2 or len(values) != n:
        raise DataError(f"{n} geo ids for series of shape {values.shape}")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        geo = geo_ids[np.flatnonzero(~finite)[0]]
        raise DataError(f"the series of geo {geo} holds a value that is not a finite number")

    order = sorted(range(n), key=geo_ids.__getitem__)
    values = values[order]
    geo_ids = [geo_ids[i] for i in order]
    index_of = {g: i for i, g in enumerate(geo_ids)}

    if initial_medoids is None:
        medoids = _farthest_first_seeds(values, k)
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

    history: list[float] = []
    n_iter = 0
    while True:
        to_medoids = np.array([_distances(values, values[m]) for m in medoids])  # (k, n)
        slots = np.argmin(to_medoids, axis=0)
        # a medoid always belongs to its own cluster, even under distance ties
        slots[medoids] = np.arange(k)
        history.append(float(np.sum(to_medoids[slots, np.arange(n)])))
        if n_iter >= max_iter:
            break
        new_medoids = []
        for slot in range(k):
            members = np.flatnonzero(slots == slot)
            new_medoids.append(int(members[_medoid(values[members])]))
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


def _profile_seeds(values: np.ndarray, geo_ids) -> list[int]:
    """Pick the five profile seeds from the built series of ``geo_ids``.

    In order: highest mean level (High), lowest mean level (Low), series
    closest to a flat 1.0 (Average), steepest upward trend (Rising),
    steepest downward trend (Declining). Each criterion is a row reduction.
    Seeds are forced distinct by taking each criterion's best not-yet-chosen
    neighborhood; all ties break toward the smaller geo_id.
    """
    if len(values) < 5:
        raise DataError(f"need at least 5 neighborhoods to seed profiles, have {len(values)}")
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


def cluster_neighborhoods(norm: NormalizedPanel, k: int = 5) -> ClusterAssignment:
    """Cluster a normalized panel into risk profiles.

    With the default k=5 the profile-criterion seeds and risk labels are
    used; any other k falls back to farthest-first seeding with generic
    cluster names, since the five named criteria only define five seeds.
    """
    series = build_series(norm)
    if k == 5:
        seeds = _profile_seeds(series, norm.geo_ids)
        return k_medoids(series, norm.geo_ids, k, initial_medoids=seeds, cluster_names=RISK_LABELS)
    return k_medoids(series, norm.geo_ids, k)


def write_assignment(assignment: ClusterAssignment, csv_path: str | Path, json_path: str | Path) -> None:
    medoid_geos = set(assignment.medoids.values())
    rows = ([geo, assignment.labels[geo], int(geo in medoid_geos)] for geo in sorted(assignment.labels))
    write_rows(csv_path, ["geo_id", "label", "is_medoid"], rows)
    doc = {
        "medoids": {label: geo for label, geo in sorted(assignment.medoids.items())},
        "total_cost": assignment.total_cost,
        "n_iter": assignment.n_iter,
    }
    write_json(json_path, doc)

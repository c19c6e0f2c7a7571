"""Acceptance gates for the whole package.

Each class is one gate: exact normalization invariants, the exact baseline
identity, equivalence of the grid search with an independently written
brute-force enumerator, cluster recovery on separated synthetic panels,
correctness of the pooled z-test, byte-level determinism of the CLI
pipeline, and exactness of the integer apportionment. The city-level checks
in TestCityReproduction need the real NYC panel export and run only when
LEADALLOC_NYC_DATA points at it; everything else runs on bundled or
generated data.
"""

import csv
import hashlib
import math
import os
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from panel_helpers import GAPS_CSV, SHUFFLED_CSV, make_record
from leadalloc.allocate import (
    ConstraintConfig,
    GridConfig,
    NoFeasiblePoint,
    build_plan,
    case_rates,
    compute_shares,
    finalize_tests,
    grid_search,
    v2_share,
)
from leadalloc.cli import main as cli_main
from leadalloc.cluster import k_medoids
from leadalloc.evaluate import (
    normal_two_sided_p,
    reallocation_percentages,
    two_proportion_ztest,
)
from leadalloc.normalize import (
    fit_share_regression,
    forecast_total_tests,
    mean_normalize_year,
)
from leadalloc.normalize import testing_population_shares as population_shares
from leadalloc.panel import NeighborhoodPanel, parse_panel

DATASET_ENV = "LEADALLOC_NYC_DATA"


class TestNormalizationInvariants:
    def test_mean_one_and_scale_invariance_on_1000_vectors(self):
        rng = np.random.default_rng(20210514)
        start = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            values = rng.uniform(0.01, 50.0, size=n)
            normalized = mean_normalize_year(values)
            assert abs(float(np.mean(normalized)) - 1.0) <= 1e-9
            factor = 2.0 ** int(rng.integers(-6, 7))
            assert np.array_equal(mean_normalize_year(values * factor), normalized)
        assert time.perf_counter() - start < 1.0


class TestIdentityBaseline:
    def assert_identity(self, data, year, total_tests):
        shares = compute_shares(data, year)
        rates = case_rates(data, year)
        candidate = v2_share(shares, 1.0, 0.0)
        assert np.array_equal(candidate, shares.x)
        assert candidate is not shares.x
        plan = build_plan(shares, rates, total_tests, 1.0, 0.0)
        assert plan.delta_cases == 0.0
        assert plan.projected_cases_v1 == plan.projected_cases_v2

    def test_on_fixture_panel(self, fixture_panel):
        self.assert_identity(fixture_panel, 2021, 12480)

    def test_on_synthetic_panel(self):
        records = [
            make_record(geo, year, tests=100 * geo + 7 * (year - 2019), cases_5plus=geo)
            for geo in (1, 2, 3)
            for year in (2019, 2020, 2021)
        ]
        data = NeighborhoodPanel.from_records(records)
        self.assert_identity(data, 2021, 5000)


def enumerate_best(
    target_tests,
    window_tests,
    window_cases,
    population,
    total_tests,
    p1_values,
    p2_values,
    floor_fraction,
    population_cap,
):
    """Brute-force reference search, written with plain Python floats.

    Walks the same lattice in the same order and applies the same skip and
    tie-break rules as the production search, but derives every number
    directly from the raw integer panel cells. Returns None when no lattice
    point survives, else (delta, p1, p2, test counts).
    """
    n = len(target_tests)
    x = [t / sum(target_tests) for t in target_tests]
    y = [c / sum(window_cases) for c in window_cases]
    rates = [c / t if t > 0 else 0.0 for c, t in zip(window_cases, window_tests)]

    def candidate_share(p1, p2):
        if p2 == 0.0 and p1 > 0.0:
            return list(x)
        if p1 == 0.0 and p2 > 0.0:
            return list(y)
        scores = [x[i] * p1 + y[i] * p2 for i in range(n)]
        if any(s < 0.0 for s in scores):
            return None
        total = 0.0
        for s in scores:
            total += s
        if total <= 0.0:
            return None
        return [s / total for s in scores]

    def apportion(share):
        raw = [share[i] * float(total_tests) for i in range(n)]
        base = [math.floor(v) for v in raw]
        acc = 0.0
        for b in base:
            acc += b
        counts = [int(b) for b in base]
        order = sorted(range(n), key=lambda i: (-(raw[i] - base[i]), i))
        for i in order[: int(total_tests - acc)]:
            counts[i] += 1
        return counts

    best = None
    for p1 in p1_values:
        for p2 in p2_values:
            share = candidate_share(p1, p2)
            if share is None:
                continue
            counts = apportion(share)
            acc = 0.0
            for i in range(n):
                acc += rates[i] * (share[i] - x[i])
            delta = total_tests * acc
            feasible = True
            for i in range(n):
                if share[i] < floor_fraction * x[i]:
                    feasible = False
                    break
                if population_cap and counts[i] > population[i]:
                    feasible = False
                    break
            if not feasible:
                continue
            if best is None or delta > best[0]:
                best = (delta, p1, p2, counts)
    return best


class TestOptimizerOracle:
    N_INSTANCES = 40

    def random_instance(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        geos = (11, 22, 33, 44, 55)[:n]
        years = (2020, 2021)
        tests = {}
        cases = {}
        for gi, geo in enumerate(geos):
            for year in years:
                t = rng.randint(1, 500) if (gi == 0 and year == 2021) else rng.randint(0, 500)
                c = rng.randint(1, t) if (gi == 0 and year == 2021) else (rng.randint(0, t) if t else 0)
                tests[geo, year] = t
                cases[geo, year] = c
        records = [
            make_record(
                geo,
                year,
                tests=tests[geo, year],
                cases_5plus=cases[geo, year],
                child_population=tests[geo, year] * rng.choice([1, 2, 10, 2000]),
            )
            for geo in geos
            for year in years
        ]
        data = NeighborhoodPanel.from_records(records)

        step = rng.choice([0.25, 0.5, 1.0])

        def lattice():
            count = rng.randint(2, 11)
            lo = -step * rng.randint(0, 4)
            return lo, lo + step * (count - 1), count

        lo1, hi1, count1 = lattice()
        lo2, hi2, count2 = lattice()
        grid = GridConfig(p1_range=(lo1, hi1), p2_range=(lo2, hi2), step=step)
        p1_values = [lo1 + i * step for i in range(count1)]
        p2_values = [lo2 + i * step for i in range(count2)]
        constraints = ConstraintConfig(
            floor_fraction=rng.choice([0.25, 0.25, 0.5]),
            population_cap=rng.choice([True, True, False]),
        )
        raw = SimpleNamespace(
            target_tests=[tests[g, 2021] for g in geos],
            window_tests=[tests[g, 2020] + tests[g, 2021] for g in geos],
            window_cases=[cases[g, 2020] + cases[g, 2021] for g in geos],
            population=[float(data.record(g, 2021).child_population) for g in geos],
            total_tests=rng.randint(1, 2 * sum(tests[g, 2021] for g in geos)),
        )
        return data, grid, constraints, p1_values, p2_values, raw

    def test_matches_enumerator_on_random_instances(self):
        start = time.perf_counter()
        feasible_instances = 0
        for seed in range(self.N_INSTANCES):
            data, grid, constraints, p1_values, p2_values, raw = self.random_instance(
                4200 + seed
            )
            assert grid.p1_values() == p1_values
            assert grid.p2_values() == p2_values
            expected = enumerate_best(
                raw.target_tests,
                raw.window_tests,
                raw.window_cases,
                raw.population,
                raw.total_tests,
                p1_values,
                p2_values,
                constraints.floor_fraction,
                constraints.population_cap,
            )
            shares = compute_shares(data, 2021, 2)
            if expected is None:
                with pytest.raises(NoFeasiblePoint):
                    grid_search(data, shares, raw.total_tests, grid, constraints)
                continue
            feasible_instances += 1
            result = grid_search(data, shares, raw.total_tests, grid, constraints)
            delta, p1, p2, counts = expected
            assert (result.plan.p1, result.plan.p2) == (p1, p2)
            assert result.plan.delta_cases == delta
            assert [int(v) for v in result.plan.v2_tests] == counts
        assert feasible_instances >= 20
        assert time.perf_counter() - start < 5.0


class TestKMedoidsRecovery:
    def test_recovers_three_level_groups(self):
        recovered = 0
        for trial in range(100):
            rng = np.random.default_rng(9000 + trial)
            series = []
            expected = []
            geo = 1
            for level in (1.0, 2.0, 3.0):
                members = set()
                for _ in range(4):
                    values = level + rng.uniform(-0.02, 0.02, size=8)
                    series.append(values)
                    members.add(geo)
                    geo += 1
                expected.append(frozenset(members))
            assignment = k_medoids(np.array(series), range(1, geo), 3)
            history = assignment.cost_history
            assert all(later <= earlier for earlier, later in zip(history, history[1:]))
            groups: dict[str, set[int]] = {}
            for member, label in assignment.labels.items():
                groups.setdefault(label, set()).add(member)
            if {frozenset(g) for g in groups.values()} == set(expected):
                recovered += 1
        assert recovered >= 95


class TestZTestCorrectness:
    def test_reference_counts(self):
        result = two_proportion_ztest(2860, 260000, 3270, 260000)
        assert abs(result.z - 5.267792495201158) <= 1e-6
        assert result.p_value < 0.05

    def test_conventional_critical_value(self):
        assert abs(normal_two_sided_p(1.96) - 0.05) <= 1e-4


@pytest.mark.skipif(
    not os.environ.get(DATASET_ENV),
    reason=f"set {DATASET_ENV} to the NYC panel CSV to run the city-level checks",
)
class TestCityReproduction:
    """Expected city-level results for the 2021 NYC panel export."""

    @pytest.fixture(scope="class")
    def city(self):
        data = parse_panel(os.environ[DATASET_ENV])
        year = 2021
        shares = compute_shares(data, year)
        rates = case_rates(data, year)
        total = forecast_total_tests(data.yearly_test_totals())
        result = grid_search(data, shares, total, rates=rates)
        return SimpleNamespace(
            panel=data, year=year, shares=shares, rates=rates, total=total, result=result
        )

    def test_forecast_total_tests(self, city):
        assert abs(city.total - 260000) <= 0.15 * 260000

    def test_projected_case_totals(self, city):
        plan = city.result.plan
        assert abs(plan.projected_cases_v1 - 2860) <= 0.10 * 2860
        assert abs(plan.projected_cases_v2 - 3270) <= 0.10 * 3270

    def test_improvement_percentage(self, city):
        plan = city.result.plan
        improvement = 100.0 * plan.delta_cases / plan.projected_cases_v1
        assert abs(improvement - 14.3) <= 3.0

    def test_case_difference(self, city):
        assert abs(city.result.plan.delta_cases - 410) <= 0.15 * 410

    def test_testing_tracks_population(self, city):
        pop_share, test_share = population_shares(city.panel, city.year)
        fit = fit_share_regression(pop_share, test_share)
        assert abs(fit.slope - 1.04) <= 0.05

    def test_lower_manhattan_keeps_quarter_of_tests(self, city):
        pct = reallocation_percentages(city.result.plan)[310]
        assert pct is not None
        assert abs(pct - 25.0) <= 10.0

    def test_identity_baseline_on_real_panel(self, city):
        candidate = v2_share(city.shares, 1.0, 0.0)
        assert np.array_equal(candidate, city.shares.x)

    def test_narrow_grid_selects_same_allocation(self, city):
        narrow = grid_search(
            city.panel,
            city.shares,
            city.total,
            GridConfig(p1_range=(-1.0, 1.0), p2_range=(-1.0, 1.0)),
            rates=city.rates,
        )
        assert np.array_equal(narrow.plan.v2_tests, city.result.plan.v2_tests)


class TestPipelineDeterminism:
    def test_two_runs_are_byte_identical(self, fixture_path, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        args = ["run", "--input", str(fixture_path), "--emit-trace"]
        start = time.perf_counter()
        assert cli_main(args + ["--out", str(first)]) == 0
        assert time.perf_counter() - start < 10.0
        assert cli_main(args + ["--out", str(second)]) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        assert "trace.csv" in names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


# sha256 of every artifact that `run --emit-trace` writes for the bundled
# fixture. A change that moves any byte must update these and say why.
FIXTURE_ARTIFACT_SHA256 = {
    "clusters.csv": "904fcdb86fbeaed571e929831737c54a640364ea33b017d309fece23a8b3e52b",
    "clusters.json": "f5331ca448840db2046593dd9ca10d843293c594e0ea82d370194ee1ef0d1e2b",
    "evaluation.json": "0502e1852959d093c32595fbfd7c3a87131b099bbe5296b2a08bda7079d426b7",
    "evaluation.txt": "60abaa3c56b0b3a06dda44401938712dbbff661051c4ef385c9ae7e245bfd7c2",
    "normalized.csv": "ba0f67d38e68fa853ff911d823cc42924a88dd4b26335566cf6984602c3472ca",
    "plan.csv": "066fc69083181ad3fc81ab8d42e474f4eac24cb7c3aba8ba0d693a80c8a1a70d",
    "plan.json": "10163fe1ca9e1c38898c6de66f63674463525e1e704fcf2197cc5e7b8dd56f56",
    "trace.csv": "0e7a1417a02cddb8f9ca7647a44303509c5adbbd3381144c562a539a35c49e19",
    "validation.json": "7a02f573705046a2b2056b789f6f624d7c5c0a3df46b83de6f96834691bc9249",
}

# The same for tests/data/panel_gaps.csv: 150 geos x 17 years with missing
# cells, zero-test cells and rows that break case nesting. It was written
# once by perfbench/gen.py's generator, seed 7, with
# PanelSpec(n_geos=150, mean_tests=300.0, missing_frac=0.03,
# zero_test_frac=0.03, bad_row_frac=0.005).
GAP_PANEL_ARTIFACT_SHA256 = {
    "clusters.csv": "826c299936fb1b05c8069286a33c7a9f0a9117f751292316e854c47c2cc21b55",
    "clusters.json": "71f640a0e01a678f3fce146ac9062010ce71210dbaa474ec007008979d5e00f1",
    "evaluation.json": "fb0696fa96cf5351a3e34483dfd081e4ca41ea2ee7dd021577db54af2d64fca0",
    "evaluation.txt": "b140b2cbded2c160d8595176d4080f7ba45fccf5bf63c1d8411249f267d44048",
    "normalized.csv": "d05fe0ba9ce64e8a5cf1bf7a1f91401a25e384b26d8f3a624d44b7a168975619",
    "plan.csv": "4e21b01fe910310924d5a3bb249abb2eee3c192ba511281b51b834af32f0103c",
    "plan.json": "5951c2aa8b9109c99ab2e082973b232aa2864cceed554b0001681954622dc7be",
    "trace.csv": "1693c3aa3714de2b93cd75fc7a427064671b88eb85337aeed39e17f8309fc0f2",
    "validation.json": "2c596ee0f47f0d8a3057809d89dab15e068a05272b255e3473830e646355eb57",
}


# The same panel with `run --k 3` and `run --k 7` (no trace), which seed the
# clusters farthest-first rather than by the five profile criteria. Only
# clusters.* and evaluation.* differ from the k=5 run.
GAP_PANEL_K_ARTIFACT_SHA256 = {
    3: {
        "clusters.csv": "d7cb157a1d9cd0d4d60fb0942cd3ac6d07151043998eafed5d377b868d8ac6fb",
        "clusters.json": "371f3f46a5d4f8f3a265562503b21a4c1e8c0d3fddbcc0350f78f0c1c556bc15",
        "evaluation.json": "511c821211b58243a0829f441b2c721f7ab6fffc1557a44fbda7b2b8323d845f",
        "evaluation.txt": "8cfe414002c0e7f8f9964a0e2786534d2f582f41c6fa53a5ad23df0e1babbdfe",
    },
    7: {
        "clusters.csv": "e002d569a60c400e3e6fff0c2a207a3698098e96a88fba601878df972c05bf4d",
        "clusters.json": "75f1e6ab86feb03372b25e828941268caca07eb883f294fbcee50be26889fe4c",
        "evaluation.json": "0ffde3ce65b7d799382dc0dbbaf37a863c5f0120c9ce719516368b2202798f2f",
        "evaluation.txt": "ac7906fc5d22552ebdfc702c325b1eff4f8182e8839252ea5802c068b0c7714d",
    },
}


def run_digests(panel_csv, out, *options):
    """`run` on the panel into ``out``, and the SHA-256 of each artifact."""
    assert cli_main(["run", "--input", str(panel_csv), "--out", str(out), *options]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}


def reversed_layout(panel_csv, path):
    """A copy of the panel CSV with its columns in reverse order and one
    more column, which no stage reads."""
    with open(panel_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["notes", *reversed(rows[0])])
        writer.writerows(["unread", *reversed(row)] for row in rows[1:])
    return path


class TestGoldenArtifacts:
    """Each panel's artifacts are pinned, and other layouts of the same
    panel must give the same bytes: rows in another order, and the header
    read by name rather than by position."""

    def test_fixture_run_bytes_are_pinned(self, fixture_path, tmp_path):
        layouts = [fixture_path, SHUFFLED_CSV, reversed_layout(fixture_path, tmp_path / "reversed.csv")]
        for i, panel_csv in enumerate(layouts):
            digests = run_digests(panel_csv, tmp_path / f"out{i}", "--emit-trace")
            assert digests == FIXTURE_ARTIFACT_SHA256, panel_csv.name

    def test_gap_panel_run_bytes_are_pinned(self, tmp_path):
        # the rows stay in file order: rejected rows are numbered by position
        layouts = [GAPS_CSV, reversed_layout(GAPS_CSV, tmp_path / "reversed.csv")]
        for i, panel_csv in enumerate(layouts):
            digests = run_digests(panel_csv, tmp_path / f"out{i}", "--emit-trace")
            assert digests == GAP_PANEL_ARTIFACT_SHA256, panel_csv.name

    @pytest.mark.parametrize("k", sorted(GAP_PANEL_K_ARTIFACT_SHA256))
    def test_gap_panel_run_bytes_at_other_k_are_pinned(self, tmp_path, k):
        digests = run_digests(GAPS_CSV, tmp_path, "--k", str(k))
        want = {name: sha for name, sha in GAP_PANEL_ARTIFACT_SHA256.items() if name != "trace.csv"}
        assert digests == dict(want, **GAP_PANEL_K_ARTIFACT_SHA256[k])


class TestApportionment:
    def test_exact_totals_on_1000_random_vectors(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            weights = rng.uniform(0.0, 1.0, size=n) + 1e-9
            share = weights / weights.sum()
            total = int(rng.integers(0, 1_000_001))
            counts = finalize_tests(share, total)
            assert int(counts.sum()) == total
            assert np.all(np.abs(counts - share * total) < 1.0)

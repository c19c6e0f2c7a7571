"""Seeded synthetic panels for the benchmark, and the workloads built on them.

Every geo is drawn from one of five latent profiles (high, low, average,
rising, declining), so k-medoids has real structure to find and iterates
more than once. Tests per cell come from a per-geo size with year noise;
cases at 5+, 10+ and 15+ are nested binomial draws, so every generated row
passes the panel's invariants unless it is one of the deliberately broken
rows. Child population is a per-geo multiple of the geo's expected tests,
which sets how often the population cap binds in the weight search.

The same (workload, seed) always gives the same CSV bytes. Nothing is
downloaded.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIRST_YEAR = 2005  # the panel parser accepts 2005-2021 by default
PROFILES = ("high", "low", "average", "rising", "declining")
PROFILE_MIX = (0.15, 0.25, 0.3, 0.15, 0.15)
BOROUGHS = ("Bronx", "Brooklyn", "Manhattan", "Queens", "Staten Island")


@dataclass(frozen=True)
class PanelSpec:
    """Generator settings for one workload's panel.

    ``pop_multiple`` bounds the per-geo ratio of child population to
    expected tests; the search's population cap binds where a candidate
    plan gives a geo more than that multiple of its current tests.
    """

    n_geos: int
    n_years: int = 17
    mean_tests: float = 2000.0  # expected tests per geo and year
    base_rate: float = 0.06  # citywide share of tests at 5+ mcg/dL in year 1
    rate_decline: float = 0.06  # yearly relative fall of the citywide rate
    missing_frac: float = 0.0  # cells with no row at all
    zero_test_frac: float = 0.0  # cells present with tests = 0
    bad_row_frac: float = 0.0  # rows that break case nesting, so the parser rejects them
    pop_multiple: tuple[float, float] = (1.5, 4.0)


@dataclass(frozen=True)
class Workload:
    name: str
    panel: PanelSpec
    flags: tuple[str, ...]  # extra `leadalloc run` flags beyond --input/--out


# Why each workload exists is in BENCHMARK.json; why each generator setting
# was chosen is next to it here. The settings decide how often the floor and
# the cap bind, which drives the search cost, so they are part of the
# workload's definition.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uhf42",
            # The paper's city scale with a complete panel; ~2,000 tests per
            # geo and year is the NYC UHF order of magnitude. Population at
            # 1.5-4x expected tests lets the cap bind only on case-heavy
            # weights, a minority of lattice points.
            PanelSpec(n_geos=42),
            (),
        ),
        Workload(
            "tracts2000",
            # Census-tract scale: ~150 tests per tract and year, with a few
            # percent of cells missing or untested, as real tract panels
            # have, and a handful of malformed rows for the parser to reject.
            PanelSpec(
                n_geos=2000,
                mean_tests=150.0,
                missing_frac=0.02,
                zero_test_frac=0.02,
                bad_row_frac=0.001,
            ),
            (),
        ),
        Workload(
            "floor90_trace",
            # A few hundred geos with a tight floor, so the floor check is the
            # hot spot, and the full trace must be written. 200 geos keeps one
            # run near the tracts2000 run time.
            PanelSpec(n_geos=200, mean_tests=400.0, missing_frac=0.01, zero_test_frac=0.01),
            ("--floor", "0.9", "--emit-trace"),
        ),
    )
}


def _profile_multipliers(profile: str, n_years: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n_years)
    if profile == "high":
        return np.full(n_years, 2.5)
    if profile == "low":
        return np.full(n_years, 0.4)
    if profile == "average":
        return np.ones(n_years)
    if profile == "rising":
        return 0.5 + 1.5 * t
    return 2.0 - 1.5 * t  # declining


def generate_rows(spec: PanelSpec, seed: int) -> list[tuple]:
    """Panel rows in CSV column order, sorted by (geo_id, year)."""
    rng = np.random.default_rng(seed)
    n, years = spec.n_geos, spec.n_years
    geo_ids = 100 + np.arange(n)
    # a fixed profile mix (largest-remainder rounding), shuffled, so panels
    # of one size cost about the same to plan whatever the seed
    exact = n * np.array(PROFILE_MIX)
    counts = np.floor(exact).astype(int)
    leftover = n - counts.sum()
    counts[np.argsort(counts - exact, kind="stable")[:leftover]] += 1
    profiles = rng.permutation(np.repeat(np.arange(len(PROFILES)), counts))
    size = spec.mean_tests * rng.lognormal(0.0, 0.5, size=n)
    level = rng.lognormal(0.0, 0.2, size=n)
    pop_mult = rng.uniform(*spec.pop_multiple, size=n)
    city = spec.base_rate * (1.0 - spec.rate_decline) ** np.arange(years)
    trend = 1.0 + 0.02 * np.arange(years)

    expected = np.outer(size, trend) * rng.lognormal(0.0, 0.1, size=(n, years))
    tests = rng.poisson(expected)
    rate = np.stack([_profile_multipliers(PROFILES[p], years) for p in profiles])
    rate = np.clip(rate * level[:, None] * city[None, :], 0.0, 0.95)

    missing = rng.random((n, years)) < spec.missing_frac
    zero = rng.random((n, years)) < spec.zero_test_frac
    bad = rng.random((n, years)) < spec.bad_row_frac
    # clustering needs a defined rate in some year for every geo
    all_gaps = np.all(missing | zero | bad, axis=1)
    for mask in (missing, zero, bad):
        mask[all_gaps, 0] = False
    tests[zero] = 0
    cases5 = rng.binomial(tests, rate)
    cases10 = rng.binomial(cases5, 0.3)
    cases15 = rng.binomial(cases10, 0.4)
    population = np.ceil(expected * pop_mult[:, None]).astype(np.int64)

    rows = []
    for i in range(n):
        name = f"Area {geo_ids[i]}"
        borough = BOROUGHS[i % len(BOROUGHS)]
        for j in range(years):
            if missing[i, j]:
                continue
            c10 = int(cases10[i, j])
            if bad[i, j]:
                c10 = int(cases5[i, j]) + 1  # breaks cases_10plus <= cases_5plus
            rows.append(
                (
                    int(geo_ids[i]), name, borough, FIRST_YEAR + j,
                    int(tests[i, j]), int(cases5[i, j]), c10, int(cases15[i, j]),
                    int(population[i, j]),
                )
            )
    return rows


HEADER = (
    "geo_id", "geo_name", "borough", "year", "tests",
    "cases_5plus", "cases_10plus", "cases_15plus", "child_population",
)


def write_panel_csv(spec: PanelSpec, seed: int, path: Path) -> int:
    """Write the seeded panel CSV; returns the number of geo x year cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(generate_rows(spec, seed))
    return spec.n_geos * spec.n_years

"""Small panel builders and the fixture path, shared by the test modules."""

from pathlib import Path

import numpy as np

from leadalloc.panel import NeighborhoodPanel, NeighborhoodYearRecord

DATA_DIR = Path(__file__).resolve().parent / "data"
FIXTURE_CSV = DATA_DIR / "panel_fixture.csv"
GAPS_CSV = DATA_DIR / "panel_gaps.csv"
SHUFFLED_CSV = DATA_DIR / "panel_fixture_shuffled.csv"  # the fixture's rows in a fixed permutation


def make_record(
    geo_id: int,
    year: int,
    tests: int,
    cases_5plus: int,
    cases_10plus: int | None = None,
    cases_15plus: int | None = None,
    child_population: int | None = None,
    geo_name: str | None = None,
    borough: str = "Riverside",
) -> NeighborhoodYearRecord:
    """A valid record with sensible defaults for the unconstrained fields."""
    if cases_10plus is None:
        cases_10plus = int(0.4 * cases_5plus)
    if cases_15plus is None:
        cases_15plus = int(0.15 * cases_5plus)
    if child_population is None:
        child_population = 3 * tests
    return NeighborhoodYearRecord(
        geo_id=geo_id,
        geo_name=geo_name if geo_name is not None else f"Area {geo_id}",
        borough=borough,
        year=year,
        tests=tests,
        cases_5plus=cases_5plus,
        cases_10plus=cases_10plus,
        cases_15plus=cases_15plus,
        child_population=child_population,
    )


def make_panel(cells) -> NeighborhoodPanel:
    """Panel from (geo_id, year, tests, cases_5plus) tuples."""
    return NeighborhoodPanel.from_records([make_record(*cell) for cell in cells])


def random_panel(rng) -> NeighborhoodPanel:
    """A hand-built panel with missing cells and zero-test cells."""
    geo_ids = sorted(rng.choice(np.arange(1, 60), size=int(rng.integers(1, 12)), replace=False).tolist())
    years = list(range(2005, 2005 + int(rng.integers(1, 9))))
    records = []
    for geo in geo_ids:
        for year in years:
            if rng.random() < 0.2:
                continue  # missing cell
            tests = 0 if rng.random() < 0.2 else int(rng.integers(1, 5000))
            cases = int(rng.integers(0, tests + 1))
            records.append(
                make_record(geo, year, tests, cases, child_population=int(rng.integers(0, 20000)))
            )
    return NeighborhoodPanel.from_records(records)

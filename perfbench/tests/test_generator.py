import csv
import dataclasses

import numpy as np
import pytest

import gen
from leadalloc import allocate, cluster, normalize, panel

SMALL = gen.PanelSpec(n_geos=300, n_years=8, mean_tests=150.0, missing_frac=0.05, zero_test_frac=0.05)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, seed in zip(paths, (7, 7, 8)):
        gen.write_panel_csv(SMALL, seed, path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_gap_fractions_and_clean_rows(tmp_path):
    path = tmp_path / "panel.csv"
    cells = gen.write_panel_csv(SMALL, 3, path)
    data = panel.parse_panel(path)
    assert cells == 300 * 8
    assert data.rejected == ()
    missing = sum(g.reason == "missing" for g in data.gaps)
    zero = sum(g.reason == "zero_tests" for g in data.gaps)
    for count in (missing, zero):
        assert 0.03 * cells < count < 0.07 * cells
    assert len(data.records) == cells - missing
    assert panel.validate_panel(data) == []


def test_bad_rows_are_rejected_by_the_parser(tmp_path):
    spec = dataclasses.replace(SMALL, missing_frac=0.0, zero_test_frac=0.0, bad_row_frac=0.02)
    path = tmp_path / "panel.csv"
    gen.write_panel_csv(spec, 5, path)
    rows = read_rows(path)[1:]
    broken = sum(int(r[6]) > int(r[5]) for r in rows)
    data = panel.parse_panel(path)
    assert broken > 0
    assert len(data.rejected) == broken
    assert all("nested" in r.reason for r in data.rejected)


def test_every_geo_keeps_a_defined_rate(tmp_path):
    spec = dataclasses.replace(SMALL, n_years=2, missing_frac=0.6, zero_test_frac=0.3)
    path = tmp_path / "panel.csv"
    gen.write_panel_csv(spec, 11, path)
    norm = normalize.normalize_panel(panel.parse_panel(path))
    assert {geo for geo, _ in norm.values} == set(norm.geo_ids)
    assert len(norm.geo_ids) == spec.n_geos


def test_profiles_give_five_real_clusters(tmp_path):
    path = tmp_path / "panel.csv"
    gen.write_panel_csv(gen.WORKLOADS["uhf42"].panel, 0, path)
    assignment = cluster.cluster_neighborhoods(normalize.normalize_panel(panel.parse_panel(path)))
    assert assignment.n_iter > 1
    assert set(assignment.labels.values()) == set(cluster.RISK_LABELS)


@pytest.mark.parametrize("seed", [0, 1])
def test_population_cap_binds_on_a_minority_of_points(tmp_path, seed):
    path = tmp_path / "panel.csv"
    gen.write_panel_csv(gen.WORKLOADS["uhf42"].panel, seed, path)
    data = panel.parse_panel(path)
    year = data.years[-1]
    shares = allocate.compute_shares(data, year)
    total = normalize.forecast_total_tests(data.yearly_test_totals())
    grid = allocate.GridConfig(p1_range=(0.0, 10.0), p2_range=(0.0, 10.0), step=0.5)
    trace = allocate.grid_search(data, shares, total, grid).trace
    capped = sum(p.reason == "population_cap" for p in trace)
    assert 0 < capped < len(trace) / 2


def test_population_is_a_few_times_expected_tests(tmp_path):
    path = tmp_path / "panel.csv"
    gen.write_panel_csv(SMALL, 2, path)
    rows = [r for r in read_rows(path)[1:] if int(r[4]) > 0]
    ratio = np.array([int(r[8]) / int(r[4]) for r in rows])
    lo, hi = SMALL.pop_multiple
    assert lo * 0.5 < np.median(ratio) < hi

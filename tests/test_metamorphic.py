"""Relations between whole runs that must hold on any panel.

Each test runs ``leadalloc run`` twice, on the bundled panels or on small
drawn ones, once as given and once with the panel or one setting changed,
and compares the artifacts byte for byte:

- shuffling the rows of a drawn panel, or writing its header in reverse
  order with one more column that no stage reads, leaves every artifact as
  it was, ``trace.csv`` included;
- a rerun on a drawn panel writes the same bytes, and its ``trace.csv``,
  read back by ``csv.reader``, holds the field texts of the run's own
  search trace, row for row; ``evaluate`` in the run's directory leaves
  its own files alone, each with the run's bytes;
- a setting that an artifact does not read leaves its bytes alone, on the
  bundled panels and on drawn ones: ``--floor`` does not move
  ``normalized.csv``, ``clusters.*`` or ``validation.json``, and ``--k``
  does not move ``normalized.csv``, ``plan.*``, ``trace.csv`` or
  ``validation.json``. Each setting's value moves the artifacts that do
  read it on both bundled panels (a floor of 0.5 would leave the plan of
  ``panel_gaps.csv`` as it is); a drawn panel's floor may not bind;
- doubling every count of tests and cases, with the population kept and
  its cap off at a fixed budget, leaves every artifact as it was, on the
  bundled panels and on drawn ones: shares and rates are ratios of exactly
  doubled floats, so they keep their bits. ``validation.json`` is the
  exception where rows are rejected, because the rejection reasons quote
  the counts;
- shifting every geo_id by +10,000 keeps their order, and so every tie
  break: each artifact of the shifted panel, with the ids shifted back,
  is the artifact of the panel as given, on the bundled panels and on
  drawn ones;
- the plan of ``optimize`` reads only the case window's years, once the
  target year and the budget are fixed: dropping the years before the
  window leaves ``plan.*`` as it was;
- shifting every year by s, past 2021 or before 2005 too, shifts every year
  an artifact holds by s and changes nothing else: a panel's years are the
  years of its rows, and the test-total trend is fitted over their
  positions. Each artifact of the shifted panel, with its years shifted
  back, is the artifact of the panel as given, on the bundled panels and on
  drawn ones.
"""

import csv
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadalloc import allocate
from leadalloc.cli import main
from leadalloc.panel import parse_panel
from panel_helpers import COMMAND_FILES, FIXTURE_CSV, GAPS_CSV

PANELS = {"fixture": FIXTURE_CSV, "gaps": GAPS_CSV}
COUNTS = ("tests", "cases_5plus", "cases_10plus", "cases_15plus")
SHIFT = 10_000
# the artifacts whose rows each start with a geo_id
GEO_CSVS = ("normalized.csv", "clusters.csv", "plan.csv")
# each panel's own forecast budget, given as a flag so that dropped years
# cannot move the forecast
OWN_TOTAL_TESTS = {"fixture": "12480", "gaps": "59101"}
HEADER = (
    "geo_id", "geo_name", "borough", "year", "tests",
    "cases_5plus", "cases_10plus", "cases_15plus", "child_population",
)
# a coarser lattice than the default keeps each drawn run short, and two
# clusters leave any drawn panel enough geos
DRAWN_RUN_OPTIONS = ("--k", "2", "--p1-range=-10:10:0.5", "--p2-range=-10:10:0.5", "--emit-trace")


def run_artifacts(panel_csv, out, *options, command="run"):
    """The bytes of each artifact of the command on the panel, by file name."""
    assert main([command, "--input", str(panel_csv), "--out", str(out), *options]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def edited_panel(panel_csv, path, edit):
    """A copy of the panel CSV with ``edit`` applied to each row's dict of
    fields; a row that ``edit`` returns as None is dropped."""
    with open(panel_csv, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(row for row in map(edit, rows) if row is not None)
    return path


def drawn_rows(seed, n_geos, n_years):
    """The rows of a small valid panel, in (geo_id, year) order, ending in
    2021: every geo has a 2021 row with tests, so every run gets through
    to the trace; about one earlier cell in ten has no row and one in ten
    has no tests; case counts are nested draws, and each geo's child
    population is a multiple of its expected tests."""
    rng = np.random.default_rng(seed)
    geo_ids = np.sort(rng.choice(np.arange(100, 1000), size=n_geos, replace=False)).tolist()
    rows = []
    for geo in geo_ids:
        size = rng.uniform(50.0, 3000.0)
        rate = rng.uniform(0.01, 0.2)
        population = math.ceil(size * rng.uniform(1.5, 4.0))
        for year in range(2022 - n_years, 2022):
            if year < 2021 and rng.random() < 0.1:
                continue
            tests = 0 if year < 2021 and rng.random() < 0.1 else int(rng.poisson(size))
            cases_5plus = int(rng.binomial(tests, rate))
            cases_10plus = int(rng.binomial(cases_5plus, 0.3))
            cases_15plus = int(rng.binomial(cases_10plus, 0.4))
            rows.append(
                (geo, f"Area {geo}", "Bronx", year, tests, cases_5plus, cases_10plus, cases_15plus, population)
            )
    return rows


def written_panel(rows, path, header=HEADER):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def drawn_runs(rows, write_changed, options=DRAWN_RUN_OPTIONS):
    """The artifacts of ``leadalloc run`` with ``options`` on a drawn panel
    and on the panel that ``write_changed(given_csv, path)`` writes to
    ``path``. Both runs must get through to the trace, so no example passes
    on an early failure."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        given_csv = written_panel(rows, tmp / "given.csv")
        changed_csv = write_changed(given_csv, tmp / "changed.csv")
        given = run_artifacts(given_csv, tmp / "given", *options)
        changed = run_artifacts(changed_csv, tmp / "changed", *options)
    assert "trace.csv" in given
    assert sorted(changed) == sorted(given)
    return given, changed


def doubled_counts(row):
    return dict(row, **{name: str(2 * int(row[name])) for name in COUNTS})


def shifted_geo(row):
    return dict(row, geo_id=str(int(row["geo_id"]) + SHIFT))


def shifted_year(shift):
    return lambda row: dict(row, year=str(int(row["year"]) + shift))


def unshifted_years(name, data, shift):
    """The bytes of an artifact of the year-shifted panel with its years
    shifted back; a JSON artifact is written again as its writer writes it."""
    text = data.decode("utf-8")
    if name == "normalized.csv":  # geo_id,year,normalized_rate
        header, *rows = text.splitlines(keepends=True)
        fields = (row.split(",", 2) for row in rows)
        text = header + "".join(f"{geo},{int(year) - shift},{rate}" for geo, year, rate in fields)
    elif name == "evaluation.txt":  # the title line names the target year
        title = r"^(Allocation evaluation, target year )(-?\d+)$"
        text = re.sub(title, lambda m: f"{m[1]}{int(m[2]) - shift}", text, flags=re.M)
    elif name.endswith(".json"):
        doc = json.loads(text)
        if "target_year" in doc:  # plan.json and evaluation.json
            doc["target_year"] -= shift
        for entry in doc.get("gap_registry", []) + doc.get("violations", []):  # validation.json
            entry["year"] -= shift
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return text.encode("utf-8")


def unshifted(name, data):
    """The bytes of an artifact of the shifted panel with its geo ids shifted
    back; a JSON artifact is written again as its writer writes it."""
    text = data.decode("utf-8")
    if name in GEO_CSVS:
        header, *rows = text.splitlines(keepends=True)
        fields = (row.split(",", 1) for row in rows)
        text = header + "".join(f"{int(geo) - SHIFT},{rest}" for geo, rest in fields)
    elif name == "evaluation.txt":  # the lines of tests kept, one per geo
        text = re.sub(r"^  (\d+): ", lambda m: f"  {int(m[1]) - SHIFT}: ", text, flags=re.M)
    elif name.endswith(".json"):
        doc = json.loads(text)
        if name == "clusters.json":
            doc["medoids"] = {label: geo - SHIFT for label, geo in doc["medoids"].items()}
        elif name == "evaluation.json":
            doc["reallocation"] = {str(int(geo) - SHIFT): kept for geo, kept in doc["reallocation"].items()}
        elif name == "validation.json":
            for entry in doc["gap_registry"] + doc["violations"]:
                if entry["geo_id"] is not None:
                    entry["geo_id"] -= SHIFT
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return text.encode("utf-8")


@pytest.fixture(params=sorted(PANELS))
def panel_csv(request):
    return PANELS[request.param]


# a setting's flags, and the artifacts of a run without --emit-trace that
# do not read the setting
UNREAD = {
    "floor": (("--floor", "0.9"), ("normalized.csv", "clusters.csv", "clusters.json", "validation.json")),
    "k": (("--k", "3"), ("normalized.csv", "plan.csv", "plan.json", "validation.json")),
}


@pytest.mark.parametrize("option, untouched", UNREAD.values(), ids=UNREAD)
def test_a_setting_moves_only_the_artifacts_that_read_it(panel_csv, tmp_path, option, untouched):
    given = run_artifacts(panel_csv, tmp_path / "given")
    changed = run_artifacts(panel_csv, tmp_path / "changed", *option)
    assert sorted(given) == sorted(changed)
    for name in untouched:
        assert given[name] == changed[name], name
    # the setting does move the artifacts that read it
    assert any(given[name] != changed[name] for name in set(given) - set(untouched))


# a drawn panel: 5-9 geos over 3-6 years, from a seed
DRAWN = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_geos=st.integers(min_value=5, max_value=9),
    n_years=st.integers(min_value=3, max_value=6),
)


@given(**DRAWN)
@settings(max_examples=25, deadline=None)
def test_shuffled_rows_give_the_same_artifacts(seed, n_geos, n_years):
    rows = drawn_rows(seed, n_geos, n_years)
    shuffled_rows = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
    given, shuffled = drawn_runs(rows, lambda _, path: written_panel(shuffled_rows, path))
    for name in given:
        assert shuffled[name] == given[name], name



@given(**DRAWN)
@settings(max_examples=10, deadline=None)
def test_a_rerun_gives_the_same_artifacts_and_the_trace_of_its_search(seed, n_geos, n_years):
    rows = drawn_rows(seed, n_geos, n_years)
    search, searches = allocate.grid_search, []

    def recorded(*args, **kwargs):
        searches.append(search(*args, **kwargs))
        return searches[-1]

    with mock.patch.object(allocate, "grid_search", recorded):
        given, rerun = drawn_runs(rows, lambda _, path: written_panel(rows, path))
        # evaluate in the run's directory, without its evaluation.*,
        # computes every stage it takes again, removes validation.json and
        # writes the run's bytes
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            out.mkdir()
            for name, data in given.items():
                if not name.startswith("evaluation."):
                    (out / name).write_bytes(data)
            panel_csv = written_panel(rows, Path(tmp) / "given.csv")
            evaluated = run_artifacts(panel_csv, out, *DRAWN_RUN_OPTIONS, command="evaluate")
    for name in given:
        assert rerun[name] == given[name], name
    assert set(evaluated) == COMMAND_FILES["evaluate"] | {"trace.csv"}
    for name in evaluated:
        assert evaluated[name] == given[name], name
    fields = [
        [repr(point.p1), repr(point.p2), "" if point.delta_cases is None else repr(point.delta_cases),
         str(int(point.feasible)), point.reason or ""]
        for point in searches[0].trace
    ]
    read_back = list(csv.reader(given["trace.csv"].decode("utf-8").splitlines()))
    assert read_back == [["p1", "p2", "delta_cases", "feasible", "reason"], *fields]


@given(**DRAWN)
@settings(max_examples=10, deadline=None)
def test_a_setting_leaves_the_artifacts_that_do_not_read_it_on_a_drawn_panel(seed, n_geos, n_years):
    """Only the half of relation 5 that holds on any panel: a drawn panel's
    floor of 0.9 may not bind, so nothing need move."""
    rows = drawn_rows(seed, n_geos, n_years)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        panel_csv = written_panel(rows, tmp / "given.csv")
        given = run_artifacts(panel_csv, tmp / "given", *DRAWN_RUN_OPTIONS)
        for key, (option, untouched) in UNREAD.items():
            changed = run_artifacts(panel_csv, tmp / key, *DRAWN_RUN_OPTIONS, *option)
            assert sorted(changed) == sorted(given)
            # the drawn runs write trace.csv, which reads the floor but not k
            for name in untouched + (("trace.csv",) if key == "k" else ()):
                assert changed[name] == given[name], (key, name)

@given(**DRAWN)
@settings(max_examples=25, deadline=None)
def test_a_reversed_header_gives_the_same_artifacts(seed, n_geos, n_years):
    rows = drawn_rows(seed, n_geos, n_years)
    reversed_rows = [("unread", *reversed(row)) for row in rows]
    reversed_header = ("notes", *reversed(HEADER))
    given, reversed_layout = drawn_runs(rows, lambda _, path: written_panel(reversed_rows, path, reversed_header))
    for name in given:
        assert reversed_layout[name] == given[name], name


@given(**DRAWN)
@settings(max_examples=25, deadline=None)
def test_shifted_geo_ids_of_a_drawn_panel_give_the_same_artifacts(seed, n_geos, n_years):
    rows = drawn_rows(seed, n_geos, n_years)
    given, shifted = drawn_runs(rows, lambda given_csv, path: edited_panel(given_csv, path, shifted_geo))
    for name in given:
        assert unshifted(name, shifted[name]) == given[name], name
    for name in (*GEO_CSVS, "clusters.json", "evaluation.json", "evaluation.txt"):
        assert shifted[name] != given[name], name


def test_doubled_counts_give_the_same_artifacts(panel_csv, tmp_path):
    options = ("--no-population-cap", "--total-tests", "100000", "--emit-trace")
    given = run_artifacts(panel_csv, tmp_path / "given", *options)
    doubled_csv = edited_panel(panel_csv, tmp_path / "doubled.csv", doubled_counts)
    doubled = run_artifacts(doubled_csv, tmp_path / "doubled", *options)
    assert sorted(given) == sorted(doubled)
    rejected = json.loads(given["validation.json"])["rejected_rows"]
    for name in given:
        if not (rejected and name == "validation.json"):
            assert given[name] == doubled[name], name


@given(**DRAWN)
@settings(max_examples=10, deadline=None)
def test_doubled_counts_of_a_drawn_panel_give_the_same_artifacts(seed, n_geos, n_years):
    rows = drawn_rows(seed, n_geos, n_years)
    options = (*DRAWN_RUN_OPTIONS, "--no-population-cap", "--total-tests", "100000")
    given, doubled = drawn_runs(rows, lambda given_csv, path: edited_panel(given_csv, path, doubled_counts), options)
    for name in given:
        assert doubled[name] == given[name], name


@pytest.mark.parametrize("k", ["5", "3"])
def test_shifted_geo_ids_give_the_same_artifacts(panel_csv, tmp_path, k):
    options = ("--k", k, "--emit-trace")
    given = run_artifacts(panel_csv, tmp_path / "given", *options)
    shifted_csv = edited_panel(panel_csv, tmp_path / "shifted.csv", shifted_geo)
    shifted = run_artifacts(shifted_csv, tmp_path / "shifted", *options)
    assert sorted(given) == sorted(shifted)
    for name in given:
        assert unshifted(name, shifted[name]) == given[name], name
    # the ids did reach every artifact that holds them
    for name in (*GEO_CSVS, "clusters.json", "evaluation.json", "evaluation.txt"):
        assert shifted[name] != given[name], name


# the artifacts that hold a year
YEAR_ARTIFACTS = ("normalized.csv", "plan.json", "evaluation.json", "evaluation.txt")


@pytest.mark.parametrize("shift", [2, -3])
def test_shifted_years_give_the_same_artifacts(panel_csv, tmp_path, shift):
    given = run_artifacts(panel_csv, tmp_path / "given", "--emit-trace")
    shifted_csv = edited_panel(panel_csv, tmp_path / "shifted.csv", shifted_year(shift))
    shifted = run_artifacts(shifted_csv, tmp_path / "shifted", "--emit-trace")
    assert sorted(given) == sorted(shifted)
    for name in given:
        assert unshifted_years(name, shifted[name], shift) == given[name], name
    # the years did reach every artifact that holds them, and the plan
    # targets the shifted panel's own latest year
    for name in YEAR_ARTIFACTS:
        assert shifted[name] != given[name], name
    assert json.loads(shifted["plan.json"])["target_year"] == json.loads(given["plan.json"])["target_year"] + shift


@given(**DRAWN, shift=st.integers(min_value=-40, max_value=40).filter(bool))
@settings(max_examples=15, deadline=None)
def test_shifted_years_of_a_drawn_panel_give_the_same_artifacts(seed, n_geos, n_years, shift):
    rows = drawn_rows(seed, n_geos, n_years)
    given, shifted = drawn_runs(rows, lambda given_csv, path: edited_panel(given_csv, path, shifted_year(shift)))
    for name in given:
        assert unshifted_years(name, shifted[name], shift) == given[name], name
    for name in YEAR_ARTIFACTS:
        assert shifted[name] != given[name], name


@pytest.mark.parametrize(
    "name, window", [("fixture", 3), ("gaps", 3), ("fixture", 1)], ids=["fixture-3", "gaps-3", "fixture-1"]
)
def test_years_before_the_window_do_not_move_the_plan(tmp_path, name, window):
    panel_csv = PANELS[name]
    first = 2021 - window + 1
    kept_csv = edited_panel(panel_csv, tmp_path / "kept.csv", lambda row: row if int(row["year"]) >= first else None)
    # the relation needs every geo to keep a row, or the plan covers fewer
    assert parse_panel(kept_csv).geo_ids == parse_panel(panel_csv).geo_ids
    options = ("--year", "2021", "--window", str(window), "--total-tests", OWN_TOTAL_TESTS[name])
    given = run_artifacts(panel_csv, tmp_path / "given", *options, command="optimize")
    kept = run_artifacts(kept_csv, tmp_path / "kept", *options, command="optimize")
    assert sorted(given) == ["plan.csv", "plan.json"]
    assert given == kept


def test_a_geo_without_a_target_year_row_leaves_the_window_relation(tmp_path):
    """At window 1, geos 106 and 151 of panel_gaps.csv have no 2021 row, so
    dropping the earlier years drops them from the panel, and the plan
    covers other neighborhoods: the relation above does not apply there."""
    kept_csv = edited_panel(GAPS_CSV, tmp_path / "kept.csv", lambda row: row if row["year"] == "2021" else None)
    assert set(parse_panel(GAPS_CSV).geo_ids) - set(parse_panel(kept_csv).geo_ids) == {106, 151}

"""Ingest tests: parsing, validation, gap registry, and round-trips."""

import json

import numpy as np
import pytest

from panel_helpers import SHUFFLED_CSV, make_panel, make_record, random_panel
from leadalloc.cli import main
from leadalloc.panel import (
    DuplicateCell,
    Gap,
    MissingColumn,
    NeighborhoodPanel,
    parse_panel,
    validate_panel,
    write_panel,
    write_validation_report,
)
from leadalloc.errors import DataError

HEADER = (
    "geo_id,geo_name,borough,year,tests,cases_5plus,cases_10plus,"
    "cases_15plus,child_population"
)


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestParsePanel:
    def test_fixture_parses_clean(self, fixture_panel):
        assert fixture_panel.geo_ids == (101, 102, 103, 104, 105, 106)
        assert fixture_panel.years == tuple(range(2010, 2022))
        assert len(fixture_panel.records) == 72
        assert fixture_panel.rejected == ()
        assert fixture_panel.gaps == ()

    def test_fixture_first_cell(self, fixture_panel):
        rec = fixture_panel.record(101, 2010)
        assert rec.geo_name == "Northpoint"
        assert rec.tests == 2000
        assert rec.cases_5plus == 100

    def test_missing_column_raises(self, tmp_path):
        path = write_csv(
            tmp_path / "bad.csv",
            ["geo_id,geo_name,borough,year,tests", "101,A,B,2020,10"],
        )
        with pytest.raises(MissingColumn, match="cases_5plus"):
            parse_panel(path)

    def test_empty_file_raises_missing_column(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MissingColumn):
            parse_panel(path)

    def test_unreadable_path_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            parse_panel(tmp_path / "does-not-exist.csv")

    def test_malformed_row_collected_with_row_number(self, tmp_path):
        path = write_csv(
            tmp_path / "rows.csv",
            [
                HEADER,
                "101,A,B,2020,100,5,2,1,300",
                "102,C,D,2020,not_a_number,5,2,1,300",
            ],
        )
        panel = parse_panel(path)
        assert len(panel.records) == 1
        assert len(panel.rejected) == 1
        assert panel.rejected[0].row == 2
        assert "tests" in panel.rejected[0].reason

    def test_broken_case_nesting_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "nest.csv",
            [HEADER, "101,A,B,2020,100,5,9,1,300"],
        )
        panel = parse_panel(path)
        assert panel.records == ()
        assert "nested" in panel.rejected[0].reason

    def test_years_come_from_the_kept_rows(self, tmp_path):
        # no year lies outside a fixed range, and a rejected row's year is
        # not a panel year
        path = write_csv(
            tmp_path / "year.csv",
            [HEADER, "101,A,B,1999,100,5,2,1,300", "101,A,B,2000,100,5,2,1,300", "101,A,B,2030,1,5,2,1,3"],
        )
        panel = parse_panel(path)
        assert panel.years == (1999, 2000)
        assert [r.row for r in panel.rejected] == [3]

    @pytest.mark.parametrize(
        "rows, words",
        [
            (
                ["101,A,B,2019,100,5,2,1,300", "101,A,B,2021,100,5,2,1,300"],
                "year 2020; the first kept row after the gap is data row 2, in 2021",
            ),
            # a rejected row's year does not fill the gap
            (
                ["101,A,B,2019,100,5,2,1,300", "101,A,B,2020,x,5,2,1,300", "101,A,B,2021,100,5,2,1,300"],
                "year 2020; the first kept row after the gap is data row 3, in 2021",
            ),
            # a typo far past the others; the row named is the first in file order
            (
                ["102,A,B,2201,100,5,2,1,300", "101,A,B,2020,100,5,2,1,300", "101,A,B,2201,100,5,2,1,300"],
                "years 2021-2200; the first kept row after the gap is data row 1, in 2201",
            ),
            # the first of two gaps is named
            (
                ["101,A,B,2010,1,0,0,0,3", "101,A,B,2012,1,0,0,0,3", "101,A,B,2015,1,0,0,0,3"],
                "year 2011; the first kept row after the gap is data row 2, in 2012",
            ),
        ],
        ids=["one_year", "rejected_row", "typo", "two_gaps"],
    )
    def test_year_gap_raises(self, tmp_path, rows, words):
        with pytest.raises(DataError) as excinfo:
            parse_panel(write_csv(tmp_path / "gap.csv", [HEADER, *rows]))
        assert str(excinfo.value) == f"the panel's years must run without a gap, but no kept row holds {words}"

    def test_shuffled_rows_name_the_same_gap_row(self, tmp_path):
        # rows out of (geo_id, year) order take the constructor's sorting
        # copy; the row named is still counted in file order
        rows = ["103,A,B,2019,1,0,0,0,3", "101,A,B,2017,1,0,0,0,3", "102,A,B,2019,1,0,0,0,3"]
        with pytest.raises(DataError, match="data row 1, in 2019"):
            parse_panel(write_csv(tmp_path / "gap.csv", [HEADER, *rows]))

    def test_duplicate_cell_always_raises(self, tmp_path):
        path = write_csv(
            tmp_path / "dup.csv",
            [
                HEADER,
                "101,A,B,2020,100,5,2,1,300",
                "101,A,B,2020,90,4,1,0,300",
            ],
        )
        with pytest.raises(DuplicateCell) as excinfo:
            parse_panel(path)
        assert (excinfo.value.geo_id, excinfo.value.year) == (101, 2020)

    def test_bom_header_tolerated(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(
            b"\xef\xbb\xbf" + (HEADER + "\n101,A,B,2020,100,5,2,1,300\n").encode()
        )
        panel = parse_panel(path)
        assert panel.record(101, 2020).tests == 100


class TestPanelContainer:
    def test_gap_registry_for_missing_cell(self):
        panel = make_panel([(1, 2020, 10, 1), (1, 2021, 10, 1), (2, 2020, 10, 1)])
        assert panel.gaps == (Gap(2, 2021, "missing"),)
        assert panel.record(2, 2021) is None
        assert not panel.view.present[1, 1]

    def test_gap_registry_for_zero_tests(self):
        panel = make_panel([(1, 2020, 0, 0), (1, 2021, 10, 1)])
        assert panel.gaps == (Gap(1, 2020, "zero_tests"),)

    def test_records_sorted_by_geo_then_year(self):
        panel = make_panel([(2, 2021, 5, 0), (1, 2021, 5, 0), (1, 2020, 5, 0)])
        assert [(r.geo_id, r.year) for r in panel.records] == [
            (1, 2020),
            (1, 2021),
            (2, 2021),
        ]

    def test_yearly_test_totals(self, fixture_panel):
        totals = fixture_panel.yearly_test_totals()
        assert totals[0] == 12000
        assert totals[-1] == 12440
        assert totals == [12000 + 40 * t for t in range(12)]

    def test_yearly_test_totals_with_missing_cells(self):
        panel = make_panel(
            [(1, 2019, 30, 1), (2, 2019, 0, 0), (3, 2019, 12, 2), (1, 2021, 7, 1), (3, 2020, 5, 0)]
        )
        assert len(panel.gaps) == 5
        assert panel.yearly_test_totals() == [42, 5, 7]


class TestPanelView:
    def test_view_agrees_with_record_on_random_panels(self):
        rng = np.random.default_rng(17)
        seen = dict.fromkeys(("missing", "zero_tests"), 0)
        for _ in range(300):
            panel = random_panel(rng)
            view = panel.view
            shape = (len(panel.geo_ids), len(panel.years))
            for array in (view.tests, view.cases_5plus, view.child_population, view.present):
                assert array.shape == shape
            assert view.tests.dtype == view.cases_5plus.dtype == view.child_population.dtype == np.int64
            for i, geo in enumerate(panel.geo_ids):
                for j, year in enumerate(panel.years):
                    rec = panel.record(geo, year)
                    got = (
                        bool(view.present[i, j]),
                        int(view.tests[i, j]),
                        int(view.cases_5plus[i, j]),
                        int(view.child_population[i, j]),
                    )
                    if rec is None:
                        assert got == (False, 0, 0, 0)
                        seen["missing"] += 1
                    else:
                        assert got == (True, rec.tests, rec.cases_5plus, rec.child_population)
                        seen["zero_tests"] += rec.tests == 0
            assert panel.yearly_test_totals() == [
                sum(r.tests for r in panel.records if r.year == year) for year in panel.years
            ]
            assert panel.view is view
        assert min(seen.values()) >= 50

    def test_counts_too_large_for_int64_sums_rejected(self):
        for tests in (2**70, 2**62):
            with pytest.raises(DataError, match="64-bit"):
                make_panel([(1, 2020, tests, 1), (2, 2020, tests, 1)])
        largest = NeighborhoodPanel.from_records(
            [make_record(g, 2020, 2**61, 1, child_population=1) for g in (1, 2)]
        )
        assert largest.yearly_test_totals() == [2**62]

    def test_view_is_read_only(self, fixture_panel):
        with pytest.raises(ValueError):
            fixture_panel.view.tests[0, 0] = 1

    def test_column_of_a_year_outside_the_panel(self, fixture_panel):
        assert fixture_panel.column(2010) == 0
        with pytest.raises(DataError, match="2030"):
            fixture_panel.column(2030)


class TestValidatePanel:
    def test_parse_output_validates_clean(self, fixture_panel):
        assert validate_panel(fixture_panel) == []

    def test_record_invariant_violation_reported(self):
        bad = make_record(1, 2020, 10, 5, cases_10plus=7)
        panel = NeighborhoodPanel.from_records([bad])
        violations = validate_panel(panel)
        assert [v.kind for v in violations] == ["record"]
        assert violations[0].geo_id == 1

    def test_unregistered_gap_reported(self):
        # a hand-built panel gets no registry from its caller; every cell
        # without a record or with zero tests is still reported
        panel = NeighborhoodPanel.from_records([make_record(1, 2020, 10, 1), make_record(2, 2021, 0, 0)])
        assert panel.gaps == (
            Gap(1, 2021, "missing"),
            Gap(2, 2020, "missing"),
            Gap(2, 2021, "zero_tests"),
        )
        assert validate_panel(panel) == []

    def test_stale_gap_reported(self):
        # a cell that holds tests is never listed, so the registry has no
        # stale entry for a filled cell
        gap = make_record(1, 2020, 0, 0)
        filled = make_record(1, 2020, 10, 1)
        with_gap = NeighborhoodPanel.from_records([gap])
        assert with_gap.gaps == (Gap(1, 2020, "zero_tests"),)
        panel = NeighborhoodPanel.from_records([filled])
        assert panel.gaps == ()
        assert validate_panel(panel) == []

    def test_repeated_cell_refused(self):
        first, again = make_record(1, 2020, 10, 1), make_record(1, 2020, 12, 2)
        other = make_record(2, 2019, 5, 0)
        with pytest.raises(DuplicateCell) as excinfo:
            NeighborhoodPanel.from_records([first, other, again])
        assert (excinfo.value.geo_id, excinfo.value.year) == (1, 2020)


class TestOneDuplicateRule:
    """A CSV and a list of records name the same repeated cell: the first
    row, in input order, whose cell an earlier row holds, here not the
    smallest repeated cell."""

    CELLS = [(2, 2020), (1, 2019), (3, 2018), (2, 2020), (1, 2019)]

    def test_parse_panel(self, tmp_path):
        lines = [HEADER] + [f"{geo},A,B,{year},100,5,2,1,300" for geo, year in self.CELLS]
        lines.insert(3, "1,A,B,2019,-5,1,0,0,300")  # rejected, so it takes no cell
        with pytest.raises(DuplicateCell) as excinfo:
            parse_panel(write_csv(tmp_path / "dup.csv", lines))
        assert (excinfo.value.geo_id, excinfo.value.year) == (2, 2020)

    def test_from_records(self):
        records = [make_record(geo, year, 100, 5) for geo, year in self.CELLS]
        with pytest.raises(DuplicateCell) as excinfo:
            NeighborhoodPanel.from_records(records)
        assert (excinfo.value.geo_id, excinfo.value.year) == (2, 2020)


class TestRoundTrip:
    def test_write_then_parse_preserves_records(self, fixture_panel, tmp_path):
        out = tmp_path / "panel.csv"
        write_panel(fixture_panel, out)
        again = parse_panel(out)
        assert again.records == fixture_panel.records
        assert again.gaps == fixture_panel.gaps

    def test_geo_id_past_int64_round_trips(self, tmp_path):
        # a geo_id of 10**20 makes the geo_id column one of Python ints
        panel = make_panel([(10**20, 2020, 10, 1), (10**20, 2021, 0, 0), (7, 2021, 5, 2)])
        assert panel._columns["geo_id"].dtype == object
        out = tmp_path / "panel.csv"
        write_panel(panel, out)
        again = parse_panel(out)
        assert again.records == panel.records
        assert again.gaps == panel.gaps == (Gap(7, 2020, "missing"), Gap(10**20, 2021, "zero_tests"))
        for name in ("tests", "cases_5plus", "child_population", "present"):
            assert np.array_equal(getattr(again.view, name), getattr(panel.view, name))

    def test_rewrite_is_byte_identical(self, fixture_panel, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_panel(fixture_panel, first)
        write_panel(parse_panel(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_validation_report_contents(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            HEADER + "\n1,A,B,2020,10,1,0,0,30\n1,A,B,2021,bad,1,0,0,30\n",
            encoding="utf-8",
        )
        panel = parse_panel(path)
        report_path = tmp_path / "validation.json"
        write_validation_report(panel, validate_panel(panel), report_path)
        doc = json.loads(report_path.read_text())
        assert doc["n_records"] == 1
        assert doc["rejected_rows"][0]["row"] == 2
        assert doc["violations"] == []


class TestOneCopyPerCell:
    """A parsed panel holds each text value once, and rows that arrive in
    (geo_id, year) order keep their arrays."""

    def test_equal_names_are_one_object(self, fixture_path, tmp_path):
        padded = write_csv(
            tmp_path / "padded.csv",
            [HEADER, "1, Area One ,Queens,2020,10,1,0,0,30", "1,Area One, Queens ,2021,10,1,0,0,30",
             "2,Area Two,Queens,2020,10,1,0,0,30"],
        )
        for path in (fixture_path, padded):
            panel = parse_panel(path)
            for name in ("geo_name", "borough"):
                values = panel._columns[name].tolist() + [getattr(r, name) for r in panel.records]
                assert len({id(v) for v in values}) == len(set(values)), (path, name)

    def test_shuffled_fixture_parses_to_the_fixture(self, fixture_panel):
        shuffled = parse_panel(SHUFFLED_CSV)
        assert shuffled.records == fixture_panel.records
        assert shuffled.gaps == fixture_panel.gaps
        assert shuffled.rejected == fixture_panel.rejected
        for name in ("tests", "cases_5plus", "child_population", "present"):
            assert np.array_equal(getattr(shuffled.view, name), getattr(fixture_panel.view, name))

    def test_shuffled_fixture_ingests_to_the_same_bytes(self, fixture_path, tmp_path):
        for name, path in (("in_order", fixture_path), ("shuffled", SHUFFLED_CSV)):
            assert main(["ingest", "--input", str(path), "--out", str(tmp_path / name)]) == 0
        written = (tmp_path / "in_order" / "panel.csv").read_bytes()
        assert (tmp_path / "shuffled" / "panel.csv").read_bytes() == written

    def test_rows_in_order_keep_their_arrays(self):
        columns = {
            "geo_id": np.array([1, 1, 2]), "geo_name": np.array(["A", "A", "B"], dtype=object),
            "borough": np.array(["Q", "Q", "Q"], dtype=object), "year": np.array([2020, 2021, 2020]),
            **{name: np.array([10, 10, 10]) for name in ("tests", "child_population")},
            **{name: np.array([1, 1, 1]) for name in ("cases_5plus", "cases_10plus", "cases_15plus")},
        }
        panel = NeighborhoodPanel(columns)
        assert all(panel._columns[name] is column for name, column in columns.items())
        assert not columns["tests"].flags.writeable  # the caller's array is now read-only

        backwards = {name: column[::-1].copy() for name, column in columns.items()}
        panel = NeighborhoodPanel(backwards)
        assert not any(panel._columns[name] is column for name, column in backwards.items())
        assert panel._columns["year"].tolist() == [2020, 2021, 2020]

"""The column-position panel parser against the csv.DictReader parser it
replaced, and the view-derived gap registry against the per-cell loop.

The reference functions below are the earlier implementations, kept as the
oracle: one dict per row, one closure per field, and a gap registry built
by looking up every (geo, year) cell. Both parsers must agree on records,
rejected rows (numbers and reasons), gaps and raised exceptions. No year is
out of range: the panel's years are the kept rows' years, and a year that
no kept row holds between two that do is an error naming the first kept
row after it.
"""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from leadalloc.panel import (
    CANONICAL_FIELDS,
    DuplicateCell,
    Gap,
    MissingColumn,
    NeighborhoodPanel,
    NeighborhoodYearRecord,
    RejectedRow,
    Violation,
    parse_panel,
    validate_panel,
)
from leadalloc import panel as panel_module
from leadalloc.errors import DataError
from panel_helpers import random_panel


def reference_gaps(records):
    years = sorted({r.year for r in records})
    geo_ids = sorted({r.geo_id for r in records})
    index = {(r.geo_id, r.year): r for r in records}
    gaps = []
    for geo in geo_ids:
        for year in years:
            rec = index.get((geo, year))
            if rec is None:
                gaps.append(Gap(geo, year, "missing"))
            elif rec.tests == 0:
                gaps.append(Gap(geo, year, "zero_tests"))
    return tuple(gaps)


def reference_invariant_errors(rec):
    """Every record invariant the record breaks, worded, in order."""
    errs = []
    for name in ("tests", "cases_5plus", "cases_10plus", "cases_15plus", "child_population"):
        if getattr(rec, name) < 0:
            errs.append(f"{name} is negative")
    if not rec.cases_15plus <= rec.cases_10plus <= rec.cases_5plus <= rec.tests:
        errs.append(
            "case counts must be nested: cases_15plus <= cases_10plus <= cases_5plus <= tests "
            f"(got {rec.cases_15plus}, {rec.cases_10plus}, {rec.cases_5plus}, {rec.tests})"
        )
    return errs


def reference_coerce_row(row):
    def text(fieldname):
        raw = row.get(fieldname)
        if raw is None or raw.strip() == "":
            raise ValueError(f"{fieldname} is empty")
        return raw.strip()

    def integer(fieldname):
        raw = text(fieldname)
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{fieldname} is not an integer: {raw!r}") from None

    return NeighborhoodYearRecord(
        geo_id=integer("geo_id"),
        geo_name=text("geo_name"),
        borough=text("borough"),
        year=integer("year"),
        tests=integer("tests"),
        cases_5plus=integer("cases_5plus"),
        cases_10plus=integer("cases_10plus"),
        cases_15plus=integer("cases_15plus"),
        child_population=integer("child_population"),
    )


TOO_LARGE = "panel counts are too large to sum as 64-bit integers"


def reference_parse(path):
    """(records, rejected, gaps) as the DictReader parser produced them,
    with the int64 limit the panel's view sets on kept counts, and the rule
    that the kept rows' years run without a gap."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for canonical in CANONICAL_FIELDS:
            if canonical not in header:
                raise MissingColumn(canonical)
        records, rejected, seen = [], [], set()
        first_row = {}  # year -> the first kept row that holds it
        for row_num, row in enumerate(reader, start=1):
            try:
                rec = reference_coerce_row(row)
            except ValueError as exc:
                rejected.append(RejectedRow(row_num, str(exc)))
                continue
            errs = reference_invariant_errors(rec)
            if errs:
                rejected.append(RejectedRow(row_num, "; ".join(errs)))
                continue
            key = (rec.geo_id, rec.year)
            if key in seen:
                raise DuplicateCell(rec.geo_id, rec.year)
            seen.add(key)
            records.append(rec)
            first_row.setdefault(rec.year, row_num)
    counts = [abs(v) for r in records for v in (r.tests, r.cases_5plus, r.child_population)]
    if counts and max(counts) * len(records) >= 2**63:
        raise DataError(TOO_LARGE)
    years = sorted(first_row)
    for before, after in zip(years, years[1:]):
        if after - before > 1:
            missing = f"year {before + 1}" if after - before == 2 else f"years {before + 1}-{after - 1}"
            raise DataError(
                f"the panel's years must run without a gap, but no kept row holds {missing}; "
                f"the first kept row after the gap is data row {first_row[after]}, in {after}"
            )
    ordered = tuple(sorted(records, key=lambda r: (r.geo_id, r.year)))
    return ordered, tuple(rejected), reference_gaps(records)


NOISE = ("", "  ", "1.5", " 2.5 ", "abc", "-", "1e3", " 7 ", "\t12", "3,4", "٣", "0x1f", "1_000")


def random_value(rng, value):
    """The field's text: usually the clean value, sometimes padded or broken."""
    roll = rng.random()
    if roll < 0.06:
        return NOISE[int(rng.integers(len(NOISE)))]
    if roll < 0.12:
        return f"  {value} "
    return str(value)


def random_csv(rng, path):
    """A panel CSV with a random header layout and awkward rows."""
    header = list(CANONICAL_FIELDS)
    if rng.random() < 0.3:
        header.append("notes")
    rng.shuffle(header)
    if rng.random() < 0.2:
        # a repeated column name: the later column is the one read
        header.insert(int(rng.integers(len(header) + 1)), header[int(rng.integers(len(header)))])
    if rng.random() < 0.05:
        header[int(rng.integers(len(header)))] += " "  # a padded name is another name
    if rng.random() < 0.05:
        header.remove(CANONICAL_FIELDS[int(rng.integers(len(CANONICAL_FIELDS)))])

    geos = rng.choice(np.arange(1, 30), size=int(rng.integers(1, 6)), replace=False).tolist()
    cells = [(g, y) for g in geos for y in range(2004, 2013)]
    rng.shuffle(cells)
    cells = cells[: int(rng.integers(0, len(cells) + 1))]
    if rng.random() < 0.5:
        cells.sort()  # rows in (geo_id, year) order, which the panel keeps without a sorting copy
    if cells and rng.random() < 0.1:
        cells.append(cells[0])  # a duplicate cell
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n" if rng.random() < 0.3 else "\n")
    writer.writerow(header)
    for geo, year in cells:
        tests = 0 if rng.random() < 0.15 else int(rng.integers(1, 500))
        c5 = int(rng.integers(0, tests + 1))
        c10 = int(rng.integers(0, c5 + 1)) if rng.random() < 0.95 else c5 + 1
        c15 = int(rng.integers(0, c10 + 1))
        clean = {
            "geo_id": geo, "geo_name": f"Area {geo}, north" if geo % 3 == 0 else f"Area {geo}",
            "borough": "Queens", "year": year, "tests": tests, "cases_5plus": c5,
            "cases_10plus": c10, "cases_15plus": c15, "child_population": 3 * tests,
        }
        row = [
            random_value(rng, clean[col]) if col in clean else "memo"
            for col in header
        ]
        roll = rng.random()
        if roll < 0.05:
            row = row[: int(rng.integers(0, len(row)))]  # a short row
        elif roll < 0.1:
            row += ["extra", "1"]  # a long row
        writer.writerow(row)
        roll = rng.random()
        if roll < 0.1:
            buf.write("\n")  # a blank line
        elif roll < 0.13:
            buf.write("  \n")  # a line holding one blank field
        elif roll < 0.15:
            buf.write(",,\n")
    text = buf.getvalue()
    if rng.random() < 0.2:
        text = "\ufeff" + text
    path.write_text(text, encoding="utf-8", newline="")


def outcome(parse, path):
    try:
        return "ok", parse(path)
    except DataError as exc:  # MissingColumn and DuplicateCell among them
        return "error", (type(exc), str(exc))


def current(path):
    panel = parse_panel(path)
    return panel.records, panel.rejected, panel.gaps


class TestParserAgainstDictReader:
    def test_random_csvs(self, tmp_path):
        rng = np.random.default_rng(20261018)
        kinds = {"ok": 0, "error": 0}
        rejected_rows = 0
        for case in range(400):
            path = tmp_path / f"panel_{case}.csv"
            random_csv(rng, path)
            want = outcome(reference_parse, path)
            assert outcome(current, path) == want, path.read_text()
            kinds[want[0]] += 1
            if want[0] == "ok":
                rejected_rows += len(want[1][1])
        # the generator reaches both outcomes and many rejected rows
        assert min(kinds.values()) >= 50
        assert rejected_rows >= 200

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n\ngeo_id\n",
            "\ufeffgeo_id,geo_name,borough,year,tests,cases_5plus,cases_10plus,cases_15plus,"
            "child_population\n\n1,A,B,2010,5,1,0,0,9\n\n\n1,A,B,2011,x,1,0,0,9\n1\n",
            "geo_id,geo_name,borough,year,tests,cases_5plus,cases_10plus,cases_15plus,"
            "child_population,tests\n1,\"A, B\", Q ,2010,,1,0,0,9,5\n1,A,Q,2011,5,1,0,0,9\n",
        ],
    )
    def test_hand_written_edges(self, tmp_path, text):
        path = tmp_path / "edge.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert outcome(current, path) == outcome(reference_parse, path)


class TestGapsFromView:
    def test_random_record_sets(self):
        rng = np.random.default_rng(8)
        total = 0
        for _ in range(300):
            records = list(random_panel(rng).records)
            rng.shuffle(records)
            panel = NeighborhoodPanel.from_records(records)
            assert panel.gaps == reference_gaps(records)
            assert all(type(g.geo_id) is int and type(g.year) is int for g in panel.gaps)
            total += len(panel.gaps)
        assert total >= 300

    def test_view_is_built_once_by_from_records(self, fixture_path):
        panel = parse_panel(fixture_path)
        assert "view" in vars(panel)
        assert panel.view is vars(panel)["view"]

    def test_empty_record_set(self):
        panel = NeighborhoodPanel.from_records([])
        assert panel.gaps == ()
        assert panel.view.tests.shape == (0, 0)


# int() reads all of these, though they are not plain ASCII digits
UNUSUAL_DIGITS = (
    lambda v: f"+{v}",
    lambda v: f"00{v}",
    lambda v: f" {v}　",  # no-break and ideographic spaces
    lambda v: f"\t{v} ",
    lambda v: str(v).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),  # Arabic-Indic
    lambda v: str(v).translate(str.maketrans("0123456789", "０１２３４５６７８９")),  # fullwidth
    lambda v: f"{v:_}" if v < 10 else f"{str(v)[0]}_{str(v)[1:]}",
)
# int() refuses these
NOT_INTEGERS = ("1__0", "_1", "1_", "+-1", "٣.0", "1e3", "0x10", "")


def wide_value(rng, value):
    """An integer field as int() may or may not read it: usually the plain
    value, sometimes written unusually, 19 to 21 digits long, or broken."""
    roll = rng.random()
    if roll < 0.1:
        return UNUSUAL_DIGITS[int(rng.integers(len(UNUSUAL_DIGITS)))](value)
    if roll < 0.13:
        digits = int(rng.integers(19, 22))
        # half below 2**63, half above; a minus sign now and then
        big = int(rng.integers(10 ** 18, 9 * 10 ** 18)) * 10 ** (digits - 19)
        return f"-{big}" if rng.random() < 0.2 else str(big)
    if roll < 0.15:
        return NOT_INTEGERS[int(rng.integers(len(NOT_INTEGERS)))]
    return str(value)


def wide_csv(rng, path):
    """A panel CSV in the default layout whose integer fields are written
    by ``wide_value``, with short rows, duplicates, and cells that come
    again after a rejected copy of themselves."""
    geos = rng.choice(np.arange(1, 30), size=int(rng.integers(1, 5)), replace=False).tolist()
    cells = [(g, y) for g in geos for y in range(2004, 2013) if rng.random() < 0.7]
    rng.shuffle(cells)
    lines = []
    for geo, year in cells:
        tests = int(rng.integers(0, 500))
        c5 = int(rng.integers(0, tests + 1))
        c10 = int(rng.integers(0, c5 + 1))
        c15 = int(rng.integers(0, c10 + 1))
        fields = [geo, "Area", "Queens", year, tests, c5, c10, c15, 3 * tests]
        copies = [list(fields)]
        roll = rng.random()
        if roll < 0.1:
            # a rejected copy first: a broken field or broken nesting
            broken = list(fields)
            if rng.random() < 0.5:
                broken[int(rng.choice([0, 3, 4, 8]))] = "n/a"
            else:
                broken[6] = c5 + 1
            copies.insert(0, broken)
        elif roll < 0.13:
            copies.append(list(fields))  # a duplicate
        for row in copies:
            text = [v if isinstance(v, str) else wide_value(rng, v) for v in row]
            if rng.random() < 0.04:
                text = text[: int(rng.integers(0, len(text)))]  # a short row
            lines.append(text)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CANONICAL_FIELDS)
    writer.writerows(lines)
    path.write_text(buf.getvalue(), encoding="utf-8", newline="")


class TestColumnParser:
    def test_unusual_and_long_integers(self, tmp_path):
        rng = np.random.default_rng(20261019)
        seen = dict.fromkeys(("ok", "duplicate", "too_large", "year_gap", "long_geo", "rejected"), 0)
        for case in range(600):
            path = tmp_path / f"wide_{case}.csv"
            wide_csv(rng, path)
            want = outcome(reference_parse, path)
            assert outcome(current, path) == want, path.read_text()
            kind, value = want
            if kind == "ok":
                seen["ok"] += 1
                seen["rejected"] += len(value[1])
                seen["long_geo"] += sum(r.geo_id >= 2**63 for r in value[0])
            elif value[0] is DuplicateCell:
                seen["duplicate"] += 1
            else:
                seen["too_large" if value[1] == TOO_LARGE else "year_gap"] += 1
        # every outcome is reached, and accepted panels hold geo ids past int64
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("chunk_rows", [1, 2, 5])
    def test_rows_read_in_small_chunks(self, tmp_path, monkeypatch, chunk_rows):
        # parse_panel reads _CHUNK_ROWS rows at a time; small chunks put
        # rejected rows, duplicates and short rows on both sides of a boundary
        monkeypatch.setattr(panel_module, "_CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(20261020 + chunk_rows)
        for case in range(60):
            path = tmp_path / f"chunks_{case}.csv"
            (wide_csv if case % 2 else random_csv)(rng, path)
            assert outcome(current, path) == outcome(reference_parse, path), path.read_text()

    def test_unusual_integers_parse_as_int_reads_them(self, tmp_path):
        row = ["101", "A", "B", "2010", "12", "3", "2", "1", "40"]
        for write in UNUSUAL_DIGITS:
            path = tmp_path / "unusual.csv"
            text = [row[0], row[1], row[2]] + [write(int(v)) for v in row[3:]]
            path.write_text(",".join(CANONICAL_FIELDS) + "\n" + ",".join(text) + "\n", encoding="utf-8")
            panel = parse_panel(path)
            assert panel.rejected == ()
            assert panel.records == (NeighborhoodYearRecord(101, "A", "B", 2010, 12, 3, 2, 1, 40),)

    @pytest.mark.parametrize("geo", [2**63 - 1, 2**63, 10**20, -(2**63) - 1])
    def test_geo_id_past_int64_still_parses(self, tmp_path, geo):
        path = tmp_path / "long_geo.csv"
        lines = [",".join(CANONICAL_FIELDS), f"{geo},A,B,2010,12,3,2,1,40", "7,A,B,2011,0,0,0,0,0"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        panel = parse_panel(path)
        assert panel.geo_ids == tuple(sorted((geo, 7)))
        assert panel.record(geo, 2010).tests == 12
        assert panel.gaps == reference_gaps(panel.records)
        assert all(type(g.geo_id) is int for g in panel.gaps)

    @pytest.mark.parametrize(
        "text, expected",
        [
            # a rejected copy does not take the cell, so the next copy is accepted
            ("1,A,B,2010,x,1,0,0,9\n1,A,B,2010,5,1,0,0,9\n", "ok"),
            ("1,A,B,2010,5,1,2,0,9\n1,A,B,2010,5,1,0,0,9\n1,A,B,2010,5,1,0,0,9\n", "duplicate"),
            ("1,A,B,2010,5,1,0,0,9\n1,A,B,2010,5,1,0,0,9\n1,A\n", "duplicate"),
            ("1,A,B,2010,5,1,0,0,9\n1,A\n1,A,B,2010,5,1,0,0,9\n", "duplicate"),
            ("1,A,B\n\n,,,,,,,,\n1,A,B,2010,5,1,0,0\n", "ok"),
        ],
    )
    def test_short_rows_and_duplicates_after_rejected_copies(self, tmp_path, text, expected):
        path = tmp_path / "copies.csv"
        path.write_text(",".join(CANONICAL_FIELDS) + "\n" + text, encoding="utf-8", newline="")
        got = outcome(current, path)
        assert got == outcome(reference_parse, path)
        if expected == "ok":
            assert got[0] == "ok"
        else:
            assert got[1] == (DuplicateCell, "duplicate cell for geo 1, year 2010")


def reference_validate(panel):
    """validate_panel as it was written over the records, one at a time."""
    violations = []
    for rec in panel.records:
        for err in reference_invariant_errors(rec):
            violations.append(Violation("record", rec.geo_id, rec.year, err))
    return violations


def broken_records(rng, records):
    """The records, some with a broken invariant, some repeated (with their
    own counts), and some out of (geo_id, year) order."""
    out = []
    for rec in records:
        roll = rng.random()
        if roll < 0.1:
            field = str(rng.choice(["tests", "cases_5plus", "cases_10plus", "cases_15plus", "child_population"]))
            # up to 21 digits, so some do not fit in int64
            rec = replace(rec, **{field: -int(rng.integers(1, 10**6)) * 10 ** int(rng.integers(0, 16))})
        elif roll < 0.15:
            rec = replace(rec, cases_10plus=rec.cases_5plus + 1)
        elif roll < 0.2:
            rec = replace(rec, year=int(rng.choice([1999, 2004, 2022, 2030])))
        elif roll < 0.23:
            rec = replace(rec, geo_id=rec.geo_id + 10**20)
        out.append(rec)
        if rng.random() < 0.08:
            out.append(replace(rec, tests=rec.tests + 1, cases_5plus=rec.cases_5plus))
    if len(out) > 1 and rng.random() < 0.5:
        i, j = sorted(rng.choice(len(out), size=2, replace=False).tolist())
        out[i], out[j] = out[j], out[i]
    return out


class TestValidateAgainstRecordLoop:
    def test_random_hand_built_panels(self):
        rng = np.random.default_rng(12)
        seen = {"record": 0, "refused": 0}
        for _ in range(300):
            base = random_panel(rng)
            records = broken_records(rng, base.records)
            if not _fits_int64_sums(records):
                continue
            try:
                panel = NeighborhoodPanel.from_records(records)
            except DuplicateCell:
                seen["refused"] += 1
                continue
            want = reference_validate(panel)
            assert validate_panel(panel) == want
            assert all(type(v.geo_id) is int and type(v.year) is int for v in want)
            seen["record"] += len(want)
        assert min(seen.values()) >= 100, seen

    def test_repeated_cells_are_refused(self):
        rng = np.random.default_rng(13)
        refused = accepted = 0
        for _ in range(300):
            base = random_panel(rng)
            records = broken_records(rng, base.records)
            if not _fits_int64_sums(records):
                continue
            repeat = _first_repeat(records)
            if repeat:
                with pytest.raises(DuplicateCell) as excinfo:
                    NeighborhoodPanel.from_records(records)
                assert (excinfo.value.geo_id, excinfo.value.year) == repeat
                refused += 1
                continue
            panel = NeighborhoodPanel.from_records(records)
            accepted += 1
            index = {(r.geo_id, r.year): r for r in records}
            view = panel.view
            for i, geo in enumerate(panel.geo_ids):
                for j, year in enumerate(panel.years):
                    rec = index.get((geo, year))
                    assert panel.record(geo, year) == rec
                    want = (False, 0, 0) if rec is None else (True, rec.tests, rec.child_population)
                    got = (bool(view.present[i, j]), int(view.tests[i, j]), int(view.child_population[i, j]))
                    assert got == want
        assert refused >= 100 and accepted >= 50, (refused, accepted)


def _first_repeat(records):
    """The cell of the first record, in input order, whose cell an earlier
    record holds, or None."""
    seen = set()
    for r in records:
        if (r.geo_id, r.year) in seen:
            return r.geo_id, r.year
        seen.add((r.geo_id, r.year))
    return None


def _fits_int64_sums(records):
    counts = [abs(v) for r in records for v in (r.tests, r.cases_5plus, r.child_population)]
    return not counts or max(counts) * len(records) < 2**63

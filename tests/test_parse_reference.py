"""The column-position panel parser against the csv.DictReader parser it
replaced, and the view-derived gap registry against the per-cell loop.

The reference functions below are the earlier implementations, kept as the
oracle: one dict per row, one closure per field, and a gap registry built
by looking up every (geo, year) cell. Both parsers must agree on records,
rejected rows (numbers and reasons), gaps and raised exceptions.
"""

import csv
import io

import numpy as np
import pytest

from leadalloc.panel import (
    CANONICAL_FIELDS,
    DEFAULT_SCHEMA,
    DuplicateCell,
    Gap,
    MalformedRow,
    MissingColumn,
    NeighborhoodPanel,
    NeighborhoodYearRecord,
    PanelSchema,
    RejectedRow,
    _record_invariant_errors,
    parse_panel,
)
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


def reference_coerce_row(row, schema):
    def text(fieldname):
        raw = row.get(schema.columns[fieldname])
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


def reference_parse(path, schema=DEFAULT_SCHEMA, on_error="collect"):
    """(records, rejected, gaps) as the DictReader parser produced them."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for canonical in CANONICAL_FIELDS:
            if schema.columns[canonical] not in header:
                raise MissingColumn(schema.columns[canonical])
        records, rejected, seen = [], [], set()
        for row_num, row in enumerate(reader, start=1):
            try:
                rec = reference_coerce_row(row, schema)
            except ValueError as exc:
                if on_error == "raise":
                    raise MalformedRow(row_num, str(exc)) from exc
                rejected.append(RejectedRow(row_num, str(exc)))
                continue
            errs = _record_invariant_errors(rec, schema.year_range)
            if errs:
                if on_error == "raise":
                    raise MalformedRow(row_num, "; ".join(errs))
                rejected.append(RejectedRow(row_num, "; ".join(errs)))
                continue
            key = (rec.geo_id, rec.year)
            if key in seen:
                raise DuplicateCell(rec.geo_id, rec.year)
            seen.add(key)
            records.append(rec)
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
    """A panel CSV with a random header layout and awkward rows.

    Returns the schema to parse it with."""
    names = dict(zip(CANONICAL_FIELDS, CANONICAL_FIELDS))
    if rng.random() < 0.2:
        names = {f: f"Col {f}, renamed" for f in CANONICAL_FIELDS}
    header = list(names.values())
    if rng.random() < 0.3:
        header.append("notes")
    rng.shuffle(header)
    if rng.random() < 0.2:
        # a repeated column name: the later column is the one read
        header.insert(int(rng.integers(len(header) + 1)), header[int(rng.integers(len(header)))])
    if rng.random() < 0.05:
        header[int(rng.integers(len(header)))] += " "  # a padded name is another name
    if rng.random() < 0.05:
        header.remove(names[CANONICAL_FIELDS[int(rng.integers(len(CANONICAL_FIELDS)))]])
    schema = PanelSchema(columns=names, year_range=(2005, 2012))
    by_name = {v: k for k, v in names.items()}

    geos = rng.choice(np.arange(1, 30), size=int(rng.integers(1, 6)), replace=False).tolist()
    cells = [(g, y) for g in geos for y in range(2004, 2013)]
    rng.shuffle(cells)
    cells = cells[: int(rng.integers(0, len(cells) + 1))]
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
            random_value(rng, clean[by_name[col]]) if col in by_name else "memo"
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
    return schema


def outcome(parse, path, schema, on_error):
    try:
        return "ok", parse(path, schema, on_error)
    except (MissingColumn, MalformedRow, DuplicateCell) as exc:
        return "error", (type(exc), str(exc))


def current(path, schema, on_error):
    panel = parse_panel(path, schema, on_error)
    return panel.records, panel.rejected, panel.gaps


class TestParserAgainstDictReader:
    def test_random_csvs(self, tmp_path):
        rng = np.random.default_rng(20261018)
        kinds = {"ok": 0, "error": 0}
        rejected_rows = 0
        for case in range(400):
            path = tmp_path / f"panel_{case}.csv"
            schema = random_csv(rng, path)
            on_error = "raise" if case % 4 == 0 else "collect"
            want = outcome(reference_parse, path, schema, on_error)
            assert outcome(current, path, schema, on_error) == want, path.read_text()
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
        for on_error in ("collect", "raise"):
            want = outcome(reference_parse, path, DEFAULT_SCHEMA, on_error)
            assert outcome(current, path, DEFAULT_SCHEMA, on_error) == want


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

"""Neighborhood testing panel: parsing, validation, and serialization.

The panel is the multi-year dataset behind everything else: one record per
(neighborhood, year) holding test counts, case counts at the three reporting
thresholds, and the child population. Case rates are always derived from the
count columns (cases / tests), never read from a rate column, so there is a
single source of truth for units.

The header is read by the canonical column names, in any order; a file
exported with other names needs its header renamed first. Bad rows are
collected, never raised, and a row's year must lie in ``DEFAULT_YEAR_RANGE``.
Rows are read into columns, one array per field, and checked column by
column. Each row rule is stated once: ``_coerce_column`` converts a field
and words each row it refuses, and ``_invariant_checks`` pairs each record
invariant's array comparison with its wording. A rejected row's reason is
its first refused field, or else every invariant it breaks; ``validate_panel``
words violations from the same table. A panel has one constructor, over
the columns, and holds one row per (geo_id, year) cell: a repeated cell is
a DuplicateCell. ``view`` and the gap registry are built from the columns,
and record objects only when something reads ``records`` or ``record()``.
A parsed text column holds one string object per distinct value, and rows
that arrive in (geo_id, year) order are kept without a sorting copy.

Cells with ``tests == 0`` have an undefined rate. They are kept in the panel
but listed in the gap registry together with any (geo, year) cells that are
absent outright, so no cell ever goes missing silently.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .errors import DataError, reading

DEFAULT_YEAR_RANGE = (2005, 2021)

CANONICAL_FIELDS = (
    "geo_id", "geo_name", "borough", "year", "tests",
    "cases_5plus", "cases_10plus", "cases_15plus", "child_population",
)
_TEXT_FIELDS = frozenset({"geo_name", "borough"})  # every other field is an integer


class MissingColumn(DataError):
    def __init__(self, name: str):
        super().__init__(f"required column not in header: {name!r}")
        self.name = name


class DuplicateCell(DataError):
    def __init__(self, geo_id: int, year: int):
        super().__init__(f"duplicate cell for geo {geo_id}, year {year}")
        self.geo_id = geo_id
        self.year = year


@dataclass(frozen=True)
class NeighborhoodYearRecord:
    geo_id: int
    geo_name: str
    borough: str
    year: int
    tests: int
    cases_5plus: int
    cases_10plus: int
    cases_15plus: int
    child_population: int


@dataclass(frozen=True)
class Gap:
    geo_id: int
    year: int
    reason: str  # "missing" (no record) or "zero_tests" (rate undefined)


@dataclass(frozen=True)
class RejectedRow:
    row: int  # 1-based data row number, header excluded
    reason: str


@dataclass(frozen=True)
class Violation:
    kind: str
    geo_id: int | None
    year: int | None
    message: str


@dataclass(frozen=True, eq=False)
class PanelView:
    """The panel's counts as (geo x year) int64 arrays.

    Rows follow the panel's ``geo_ids`` and columns its ``years``. A cell
    with no record holds 0 in every count and False in ``present``.
    """

    tests: np.ndarray
    cases_5plus: np.ndarray
    child_population: np.ndarray
    present: np.ndarray


class NeighborhoodPanel:
    """Immutable panel over (geo_id, year) cells.

    Built from columns, one array per canonical field: integers as int64,
    or as Python ints where a value does not fit, and text as Python
    strings. The rows are put in (geo_id, year) order, ``geo_ids`` and
    ``years`` are taken from them, and a repeated cell is a DuplicateCell.
    Rows that already arrive in that order are not copied: the panel then
    keeps, and makes read-only, the caller's own arrays. Every caller in
    leadalloc passes arrays it made for the panel.
    ``view`` holds the cells as arrays, for arithmetic over the panel, and
    ``gaps`` is derived from it. ``records`` and ``record()`` build record
    objects the first time they are read. ``rejected`` records input rows
    dropped during parsing.
    """

    def __init__(self, columns: dict[str, np.ndarray], rejected: tuple[RejectedRow, ...] = ()):
        order = np.lexsort((columns["year"], columns["geo_id"]))
        # lexsort is stable, so rows already in (geo_id, year) order give 0, 1, 2, ...
        in_order = not np.any(order[1:] < order[:-1])
        columns = {name: column if in_order else column[order] for name, column in columns.items()}
        geo, year = columns["geo_id"], columns["year"]
        repeats = np.flatnonzero((geo[1:] == geo[:-1]) & (year[1:] == year[:-1]))
        if repeats.size:
            raise DuplicateCell(int(geo[repeats[0]]), int(year[repeats[0]]))
        for column in columns.values():
            column.flags.writeable = False
        years, geo_ids = (tuple(sorted(set(column.tolist()))) for column in (year, geo))
        self.__dict__.update(_columns=columns, years=years, geo_ids=geo_ids, rejected=tuple(rejected))
        self.gaps  # builds the view too, so counts too large for int64 raise here

    def __setattr__(self, name, value):
        raise AttributeError(f"NeighborhoodPanel is immutable: cannot set {name!r}")

    @classmethod
    def from_records(cls, records: list[NeighborhoodYearRecord], rejected=()) -> "NeighborhoodPanel":
        """A panel over the records' cells; DuplicateCell for a repeated one."""
        return cls(_columns_of(records), rejected)

    @cached_property
    def records(self) -> tuple[NeighborhoodYearRecord, ...]:
        """One record per row of the columns, in their order."""
        columns = self._columns
        return tuple(map(NeighborhoodYearRecord, *(columns[name].tolist() for name in CANONICAL_FIELDS)))

    @cached_property
    def _index(self) -> dict[tuple[int, int], NeighborhoodYearRecord]:
        return {(r.geo_id, r.year): r for r in self.records}

    def record(self, geo_id: int, year: int) -> NeighborhoodYearRecord | None:
        return self._index.get((geo_id, year))

    @cached_property
    def view(self) -> PanelView:
        """The (geo x year) arrays, built from the columns with the panel."""
        columns = self._columns
        shape = (len(self.geo_ids), len(self.years))
        cells = _positions(self.geo_ids, columns["geo_id"]) * shape[1] + _positions(self.years, columns["year"])
        counts = [columns[name] for name in ("tests", "cases_5plus", "child_population")]
        # int64 sums wrap where Python's grow, so no sum over the view may reach 2**63
        if cells.size and max(max(int(c.max()), -int(c.min())) for c in counts) * cells.size >= 2**63:
            raise DataError("panel counts are too large to sum as 64-bit integers")
        flat = np.zeros((3, shape[0] * shape[1]), dtype=np.int64)
        flat[:, cells] = np.array(counts, dtype=np.int64)
        present = np.zeros(shape[0] * shape[1], dtype=bool)
        present[cells] = True
        flat.flags.writeable = present.flags.writeable = False
        tests, cases, population = flat.reshape(3, *shape)
        return PanelView(tests, cases, population, present.reshape(shape))

    @cached_property
    def gaps(self) -> tuple[Gap, ...]:
        """The registry of cells with no record or with an undefined rate,
        in (geo_id, year) order."""
        view = self.view
        # absent cells hold 0 tests in the view, so one mask finds both kinds
        rows, cols = np.nonzero(view.tests == 0)
        present = view.present[rows, cols].tolist()
        return tuple(
            Gap(self.geo_ids[i], self.years[j], "zero_tests" if here else "missing")
            for i, j, here in zip(rows.tolist(), cols.tolist(), present)
        )

    def column(self, year: int) -> int:
        """Column of a panel year in ``view``; DataError for any other year."""
        if year not in self.years:
            raise DataError(f"year {year} is not a panel year")
        return self.years.index(year)

    def yearly_test_totals(self) -> list[int]:
        """Citywide test count per panel year, in year order."""
        return self.view.tests.sum(axis=0).tolist()


def _object_column(values) -> np.ndarray:
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def _int_column(values) -> np.ndarray:
    """int64, or Python ints where a value does not fit in 64 bits."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return _object_column(values)


def _columns_of(records) -> dict[str, np.ndarray]:
    """The records' fields as columns, in record order."""
    fields = list(zip(*map(attrgetter(*CANONICAL_FIELDS), records))) or [()] * len(CANONICAL_FIELDS)
    return {
        name: _object_column(values) if name in _TEXT_FIELDS else _int_column(values)
        for name, values in zip(CANONICAL_FIELDS, fields)
    }


def _positions(keys: tuple, values: np.ndarray) -> np.ndarray:
    """The index of each value in ``keys``, which are sorted and hold every value."""
    return np.searchsorted(_int_column(keys), values)


# rows parse_panel reads and coerces at a time: the text of one chunk is
# held at once, so a parse's memory high-water mark stays small
_CHUNK_ROWS = 1024

_COUNT_FIELDS = ("tests", "cases_5plus", "cases_10plus", "cases_15plus", "child_population")


def _invariant_checks(columns: dict[str, np.ndarray], year_range) -> list:
    """Each record invariant as (the rows that break it as a mask, the
    wording for row i), in the order a row's reasons are given."""
    lo, hi = year_range
    tests, c5, c10, c15, _ = (columns[name] for name in _COUNT_FIELDS)
    year = columns["year"]
    return [
        *((columns[name] < 0, lambda i, name=name: f"{name} is negative") for name in _COUNT_FIELDS),
        (
            (c15 > c10) | (c10 > c5) | (c5 > tests),
            lambda i: "case counts must be nested: cases_15plus <= cases_10plus <= cases_5plus "
            f"<= tests (got {c15[i]}, {c10[i]}, {c5[i]}, {tests[i]})",
        ),
        ((year < lo) | (year > hi), lambda i: f"year {year[i]} outside {lo}-{hi}"),
    ]


def _broken(checks) -> np.ndarray:
    """The rows that break any of the checks, as a mask."""
    return np.logical_or.reduce([mask for mask, _ in checks])


def _errors(checks, i: int) -> list[str]:
    """The wording of every check row i breaks."""
    return [word(i) for mask, word in checks if mask[i]]


def _repeats(geo: np.ndarray, year: np.ndarray) -> np.ndarray:
    """The rows whose (geo, year) cell an earlier row holds, as a mask."""
    order = np.lexsort((year, geo))  # stable, so each cell's rows stay in row order
    geo, year = geo[order], year[order]
    repeat = np.zeros(order.size, dtype=bool)
    repeat[order[1:][(geo[1:] == geo[:-1]) & (year[1:] == year[:-1])]] = True
    return repeat


def parse_panel(path: str | Path) -> NeighborhoodPanel:
    """Parse a panel CSV into a validated NeighborhoodPanel.

    The header is read by name: the canonical columns may come in any
    order, other columns are ignored, and a missing one is a MissingColumn.
    Rows that fail type coercion or a record invariant (with years in
    ``DEFAULT_YEAR_RANGE``) are rejected and collected on ``panel.rejected``
    with their 1-based data row number. A duplicate (geo_id, year) cell
    raises DuplicateCell: there is no principled way to pick which duplicate
    to keep. A cell counts as taken only by a row that was not rejected.

    The rows are read into columns and checked column by column, and each
    rejected row is worded from its own chunk. A file that cannot be read
    is a DataError naming it (see ``errors.reading``).
    """
    with reading(path, "panel file", table=True) as table:
        # the header through csv.DictReader, and then each row as a list
        header, reader = table.fieldnames or [], table.reader
        # a repeated column name reads its last column, as csv.DictReader does
        position = {name: i for i, name in enumerate(header)}
        for name in CANONICAL_FIELDS:
            if name not in position:
                raise MissingColumn(name)
        positions = [position[name] for name in CANONICAL_FIELDS]
        pick, pad = itemgetter(*positions), [""] * (max(positions) + 1)
        # each row's canonical fields; blank lines are skipped without a row
        # number, as csv.DictReader does, and a field past the end of a short
        # row reads as empty
        rows = (pick(row) if len(row) >= len(pad) else pick(row + pad) for row in reader if row)
        # in chunks, so the text of every row is never held at once
        chunks = [_coerce_rows(list(islice(rows, _CHUNK_ROWS)))]
        while chunks[-1][1].size == _CHUNK_ROWS:
            chunks.append(_coerce_rows(list(islice(rows, _CHUNK_ROWS))))

    # each field's chunks are dropped as soon as they are joined
    columns = {name: np.concatenate([c.pop(name) for c, _, _ in chunks]) for name in CANONICAL_FIELDS}
    accepted = np.concatenate([a for _, a, _ in chunks])
    reasons = [reason for _, _, chunk_reasons in chunks for reason in chunk_reasons]
    kept = np.flatnonzero(accepted)
    repeats = kept[_repeats(columns["geo_id"][kept], columns["year"][kept])]
    if repeats.size:
        first = repeats[0]
        raise DuplicateCell(int(columns["geo_id"][first]), int(columns["year"][first]))
    bad = np.flatnonzero(~accepted).tolist()
    rejected = tuple(RejectedRow(i + 1, reason) for i, reason in zip(bad, reasons))
    # each joined column is dropped once its kept rows are taken, so the
    # constructor's sort is the second live copy of a column, never the third
    return NeighborhoodPanel({name: columns.pop(name)[kept] for name in CANONICAL_FIELDS}, rejected)


def _coerce_rows(rows: list[tuple[str, ...]]):
    """(columns, accepted, reasons) for rows of canonical fields: the
    accepted mask marks rows whose every field coerces and that break no
    record invariant, and the reasons word the other rows, in order. A
    row's reason is its first refused field, or else every invariant it
    breaks."""
    raw = list(zip(*rows)) or [()] * len(CANONICAL_FIELDS)
    columns, refusals = {}, {}
    for name, strings in zip(CANONICAL_FIELDS, raw):
        columns[name], refused = _coerce_column(name, strings)
        for i, reason in refused.items():
            refusals.setdefault(i, reason)
    checks = _invariant_checks(columns, DEFAULT_YEAR_RANGE)
    rejected = _broken(checks)
    rejected[list(refusals)] = True
    reasons = [
        refusals.get(i) or "; ".join(_errors(checks, i)) for i in np.flatnonzero(rejected).tolist()
    ]
    return columns, ~rejected, reasons


def _coerce_column(name: str, strings: tuple[str, ...]) -> tuple[np.ndarray, dict[int, str]]:
    """One field's column, and the reason for each row that refuses the
    field: it is empty, or not an integer. Those rows hold a placeholder."""
    if name in _TEXT_FIELDS:
        # one string object per distinct value: a name repeats on every row of its geo
        values = [sys.intern(s.strip()) for s in strings]
        return _object_column(values), {i: f"{name} is empty" for i, s in enumerate(values) if not s}
    try:
        return _int_column(list(map(int, map(str.strip, strings)))), {}
    except ValueError:  # find the fields int() refuses; they read as 0
        values, refused = [], {}
        for i, s in enumerate(map(str.strip, strings)):
            try:
                values.append(int(s))
            except ValueError:
                values.append(0)
                refused[i] = f"{name} is not an integer: {s!r}" if s else f"{name} is empty"
        return _int_column(values), refused


def validate_panel(
    panel: NeighborhoodPanel,
    year_range: tuple[int, int] = DEFAULT_YEAR_RANGE,
) -> list[Violation]:
    """Check every record invariant.

    Violations are returned as data, never raised: an empty list means the
    panel is clean. parse_panel output always validates clean because bad
    rows were rejected up front; this exists for panels assembled by hand
    or round-tripped through files. The checks run on the columns; a row
    that fails one gets each of its errors, in (geo_id, year) order. No
    panel repeats a cell: its constructor refuses one.
    """
    columns = panel._columns
    checks = _invariant_checks(columns, year_range)
    violations: list[Violation] = []
    for i in np.flatnonzero(_broken(checks)).tolist():
        geo_id, year = int(columns["geo_id"][i]), int(columns["year"][i])
        violations += [Violation("record", geo_id, year, err) for err in _errors(checks, i)]
    return violations


def write_panel(panel: NeighborhoodPanel, path: str | Path) -> None:
    """Serialize to the canonical CSV layout (parse_panel round-trips it)."""
    columns = panel._columns
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CANONICAL_FIELDS)
        writer.writerows(zip(*(columns[name].tolist() for name in CANONICAL_FIELDS)))


def write_validation_report(
    panel: NeighborhoodPanel,
    violations: list[Violation],
    path: str | Path,
) -> None:
    """Emit parse diagnostics, the gap registry, and violations as JSON."""
    doc = {
        "n_records": len(panel._columns["geo_id"]),
        "n_years": len(panel.years),
        "n_neighborhoods": len(panel.geo_ids),
        "rejected_rows": [
            {"row": r.row, "reason": r.reason} for r in panel.rejected
        ],
        "gap_registry": [
            {"geo_id": g.geo_id, "year": g.year, "reason": g.reason} for g in panel.gaps
        ],
        "violations": [
            {"kind": v.kind, "geo_id": v.geo_id, "year": v.year, "message": v.message}
            for v in violations
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

"""Neighborhood testing panel: parsing, validation, and serialization.

The panel is the multi-year dataset behind everything else: one record per
(neighborhood, year) holding test counts, case counts at the three reporting
thresholds, and the child population. Case rates are always derived from the
count columns (cases / tests), never read from a rate column, so there is a
single source of truth for units.

Cells with ``tests == 0`` have an undefined rate. They are kept in the panel
but listed in the gap registry together with any (geo, year) cells that are
absent outright, so no cell ever goes missing silently.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError

DEFAULT_YEAR_RANGE = (2005, 2021)

# canonical field -> CSV column, overridable via PanelSchema
DEFAULT_COLUMNS = {
    "geo_id": "geo_id",
    "geo_name": "geo_name",
    "borough": "borough",
    "year": "year",
    "tests": "tests",
    "cases_5plus": "cases_5plus",
    "cases_10plus": "cases_10plus",
    "cases_15plus": "cases_15plus",
    "child_population": "child_population",
}

CANONICAL_FIELDS = tuple(DEFAULT_COLUMNS)


class MissingColumn(DataError):
    def __init__(self, name: str):
        super().__init__(f"required column not in header: {name!r}")
        self.name = name


class MalformedRow(DataError):
    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class DuplicateCell(DataError):
    def __init__(self, geo_id: int, year: int):
        super().__init__(f"duplicate cell for geo {geo_id}, year {year}")
        self.geo_id = geo_id
        self.year = year


@dataclass(frozen=True)
class PanelSchema:
    """Column-name mapping plus the accepted year range.

    Keeping the mapping in configuration means a renamed portal column is a
    config edit, not a code change.
    """

    columns: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_COLUMNS))
    year_range: tuple[int, int] = DEFAULT_YEAR_RANGE

    def __post_init__(self):
        missing = [f for f in CANONICAL_FIELDS if f not in self.columns]
        if missing:
            raise ValueError(f"schema missing canonical fields: {missing}")


DEFAULT_SCHEMA = PanelSchema()


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

    def rate_5plus(self) -> float | None:
        """Cases per test at the 5+ mcg/dL threshold; None when undefined."""
        if self.tests == 0:
            return None
        return self.cases_5plus / self.tests


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


@dataclass(frozen=True)
class NeighborhoodPanel:
    """Immutable panel over (geo_id, year) cells.

    ``gaps`` is the explicit registry of cells with no record or with an
    undefined rate; ``rejected`` records input rows dropped during parsing.
    ``view`` holds the same cells as arrays, for arithmetic over the panel.
    """

    records: tuple[NeighborhoodYearRecord, ...]
    years: tuple[int, ...]
    geo_ids: tuple[int, ...]
    gaps: tuple[Gap, ...] = ()
    rejected: tuple[RejectedRow, ...] = ()

    def __post_init__(self):
        index = {(r.geo_id, r.year): r for r in self.records}
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_records(
        cls,
        records: list[NeighborhoodYearRecord],
        rejected: tuple[RejectedRow, ...] = (),
    ) -> "NeighborhoodPanel":
        """Build a panel, deriving the gap registry from the records."""
        years = tuple(sorted({r.year for r in records}))
        geo_ids = tuple(sorted({r.geo_id for r in records}))
        index = {(r.geo_id, r.year): r for r in records}
        gaps = []
        for geo in geo_ids:
            for year in years:
                rec = index.get((geo, year))
                if rec is None:
                    gaps.append(Gap(geo, year, "missing"))
                elif rec.tests == 0:
                    gaps.append(Gap(geo, year, "zero_tests"))
        ordered = sorted(records, key=lambda r: (r.geo_id, r.year))
        return cls(
            records=tuple(ordered),
            years=years,
            geo_ids=geo_ids,
            gaps=tuple(gaps),
            rejected=rejected,
        )

    def record(self, geo_id: int, year: int) -> NeighborhoodYearRecord | None:
        return self._index.get((geo_id, year))

    @cached_property
    def view(self) -> PanelView:
        """The (geo x year) arrays, built on first use in one pass over the
        cells; records outside ``geo_ids`` or ``years`` are left out."""
        row = {geo: i for i, geo in enumerate(self.geo_ids)}
        col = {year: j for j, year in enumerate(self.years)}
        shape = (len(self.geo_ids), len(self.years))
        cells, counts = [], []
        for (geo, year), rec in self._index.items():
            i, j = row.get(geo), col.get(year)
            if i is not None and j is not None:
                cells.append(i * shape[1] + j)
                counts.append((rec.tests, rec.cases_5plus, rec.child_population))
        # int64 sums wrap where Python's grow, so no sum over the view may reach 2**63
        if counts and max(max(map(max, counts)), -min(map(min, counts))) * len(cells) >= 2**63:
            raise DataError("panel counts are too large to sum as 64-bit integers")
        flat = np.zeros((3, shape[0] * shape[1]), dtype=np.int64)
        flat[:, cells] = np.array(counts, dtype=np.int64).reshape(-1, 3).T
        present = np.zeros(shape[0] * shape[1], dtype=bool)
        present[cells] = True
        flat.flags.writeable = present.flags.writeable = False
        tests, cases, population = flat.reshape(3, *shape)
        return PanelView(tests, cases, population, present.reshape(shape))

    def column(self, year: int) -> int:
        """Column of a panel year in ``view``; DataError for any other year."""
        if year not in self.years:
            raise DataError(f"year {year} is not a panel year")
        return self.years.index(year)

    def yearly_test_totals(self) -> list[int]:
        """Citywide test count per panel year, in year order."""
        return self.view.tests.sum(axis=0).tolist()


def _record_invariant_errors(rec: NeighborhoodYearRecord, year_range) -> list[str]:
    errs = []
    for name in ("tests", "cases_5plus", "cases_10plus", "cases_15plus", "child_population"):
        if getattr(rec, name) < 0:
            errs.append(f"{name} is negative")
    if not rec.cases_15plus <= rec.cases_10plus <= rec.cases_5plus <= rec.tests:
        errs.append(
            "case counts must be nested: cases_15plus <= cases_10plus <= cases_5plus <= tests "
            f"(got {rec.cases_15plus}, {rec.cases_10plus}, {rec.cases_5plus}, {rec.tests})"
        )
    lo, hi = year_range
    if not lo <= rec.year <= hi:
        errs.append(f"year {rec.year} outside {lo}-{hi}")
    return errs


def parse_panel(
    path: str | Path,
    schema: PanelSchema = DEFAULT_SCHEMA,
    on_error: str = "collect",
) -> NeighborhoodPanel:
    """Parse a panel CSV into a validated NeighborhoodPanel.

    Rows that fail type coercion or a record invariant are rejected and
    reported with their 1-based data row number. With ``on_error="collect"``
    (the default) rejects accumulate on ``panel.rejected``; with
    ``on_error="raise"`` the first bad row raises MalformedRow. A duplicate
    (geo_id, year) cell always raises DuplicateCell: there is no principled
    way to pick which duplicate to keep.
    """
    if on_error not in ("collect", "raise"):
        raise ValueError(f"on_error must be 'collect' or 'raise', got {on_error!r}")
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read panel file {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for canonical in CANONICAL_FIELDS:
            if schema.columns[canonical] not in header:
                raise MissingColumn(schema.columns[canonical])

        records: list[NeighborhoodYearRecord] = []
        rejected: list[RejectedRow] = []
        seen: set[tuple[int, int]] = set()
        for row_num, row in enumerate(reader, start=1):
            try:
                rec = _coerce_row(row, schema)
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

    return NeighborhoodPanel.from_records(records, rejected=tuple(rejected))


def _coerce_row(row: dict, schema: PanelSchema) -> NeighborhoodYearRecord:
    def text(fieldname: str) -> str:
        raw = row.get(schema.columns[fieldname])
        if raw is None or raw.strip() == "":
            raise ValueError(f"{fieldname} is empty")
        return raw.strip()

    def integer(fieldname: str) -> int:
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


def validate_panel(
    panel: NeighborhoodPanel,
    year_range: tuple[int, int] = DEFAULT_YEAR_RANGE,
) -> list[Violation]:
    """Check every record invariant and the gap-registry consistency.

    Violations are returned as data, never raised: an empty list means the
    panel is clean. parse_panel output always validates clean because bad
    rows were rejected up front; this exists for panels assembled by hand
    or round-tripped through files.
    """
    violations: list[Violation] = []
    seen: set[tuple[int, int]] = set()
    for rec in panel.records:
        for err in _record_invariant_errors(rec, year_range):
            violations.append(Violation("record", rec.geo_id, rec.year, err))
        key = (rec.geo_id, rec.year)
        if key in seen:
            violations.append(
                Violation("duplicate", rec.geo_id, rec.year, "geo appears twice in year")
            )
        seen.add(key)

    registry = {(g.geo_id, g.year): g.reason for g in panel.gaps}
    for geo in panel.geo_ids:
        for year in panel.years:
            rec = panel.record(geo, year)
            reason = registry.get((geo, year))
            if rec is None and reason != "missing":
                violations.append(
                    Violation("gap", geo, year, "cell absent but not registered as missing")
                )
            elif rec is not None and rec.tests == 0 and reason != "zero_tests":
                violations.append(
                    Violation("gap", geo, year, "undefined rate (tests=0) not registered")
                )
            elif rec is not None and rec.tests > 0 and reason is not None:
                violations.append(
                    Violation("gap", geo, year, f"registered as {reason} but cell is defined")
                )
    return violations


def write_panel(panel: NeighborhoodPanel, path: str | Path) -> None:
    """Serialize to the canonical CSV layout (parse_panel round-trips it)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CANONICAL_FIELDS)
        for rec in panel.records:
            writer.writerow([getattr(rec, f) for f in CANONICAL_FIELDS])


def write_validation_report(
    panel: NeighborhoodPanel,
    violations: list[Violation],
    path: str | Path,
) -> None:
    """Emit parse diagnostics, the gap registry, and violations as JSON."""
    doc = {
        "n_records": len(panel.records),
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

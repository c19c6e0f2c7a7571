"""Year-wise mean normalization and descriptive statistics.

Each year's case-rate vector is divided by its own mean, so every value
reads as a multiple of that year's citywide average: 1 is average, above 1
is above average. Normalizing per year keeps trends comparable across years
even as absolute rates fall. The deliberately simple alternative, min-max
scaling, is not used here: it compresses exactly the outliers this analysis
cares about.

Also home to the small regression utilities: the testing-share vs
population-share fit and the next-year total-test forecast.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .panel import NeighborhoodPanel

MEAN_TOLERANCE = 1e-9


class ZeroMean(DataError):
    def __init__(self, year: int | None = None):
        where = f" in year {year}" if year is not None else ""
        super().__init__(f"all rates are zero{where}; mean normalization undefined")
        self.year = year


class DegenerateInput(DataError):
    pass


class InsufficientData(ConfigError):
    pass


@dataclass(frozen=True)
class NormalizedPanel:
    """Mean-normalized rate per (geo_id, year), defined cells only.

    A cell is present iff the raw rate was defined (record exists and
    tests > 0); gaps propagate rather than being imputed.
    """

    values: dict[tuple[int, int], float]
    years: tuple[int, ...]
    geo_ids: tuple[int, ...]


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    r_squared: float
    n: int


def mean_normalize_year(rates) -> np.ndarray:
    """Divide a year's rate vector by its mean so the output averages 1.

    Raises ZeroMean when every rate is 0: an all-zero output would look like
    a valid "everything at the average" year, so that case must be explicit.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.size == 0:
        raise ValueError("cannot normalize an empty rate vector")
    mean = float(np.mean(rates))
    if mean <= 0.0:
        raise ZeroMean()
    return rates / mean


def normalize_panel(panel: NeighborhoodPanel) -> NormalizedPanel:
    """Normalize each panel year independently; undefined cells stay absent."""
    view = panel.view
    defined = view.present & (view.tests != 0)
    rates = np.divide(view.cases_5plus, view.tests, out=np.zeros(defined.shape), where=defined)
    values: dict[tuple[int, int], float] = {}
    for column, year in enumerate(panel.years):
        rows = defined[:, column]
        if not rows.any():
            continue
        try:
            normalized = mean_normalize_year(rates[rows, column])
        except ZeroMean:
            raise ZeroMean(year) from None
        for row, value in zip(np.flatnonzero(rows).tolist(), normalized.tolist()):
            values[(panel.geo_ids[row], year)] = value
    return NormalizedPanel(values=values, years=panel.years, geo_ids=panel.geo_ids)


def ols_line(x, y) -> tuple[float, float]:
    """Closed-form simple least squares: slope and intercept of y on x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_mean = float(np.mean(x))
    y_mean = float(np.mean(y))
    sxx = float(np.sum((x - x_mean) ** 2))
    if sxx == 0.0:
        raise DegenerateInput("x has zero variance; line is vertical")
    sxy = float(np.sum((x - x_mean) * (y - y_mean)))
    slope = sxy / sxx
    return slope, y_mean - slope * x_mean


def fit_share_regression(x, y) -> RegressionFit:
    """OLS fit of testing shares on population shares.

    Both inputs are share vectors over the same neighborhoods and must each
    sum to 1 (within 1e-6). A slope near 1 with high r-squared says testing
    simply tracks head count, ignoring risk.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d vectors of equal length")
    if x.size < 2:
        raise InsufficientData("need at least 2 points to fit a line")
    for name, vec in (("x", x), ("y", y)):
        if abs(float(np.sum(vec)) - 1.0) > 1e-6:
            raise ValueError(f"{name} is not a share vector (sum != 1)")
    slope, intercept = ols_line(x, y)
    residuals = y - (intercept + slope * x)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    r_squared = min(1.0, max(0.0, r_squared))
    return RegressionFit(slope=slope, intercept=intercept, r_squared=r_squared, n=int(x.size))


def forecast_total_tests(yearly_totals, window: int | None = None) -> int:
    """Project next year's citywide test count from a linear trend.

    ``window`` restricts the fit to the last N years; default uses every
    year given. The forecast is rounded half-up and floored at 0, since a
    negative test count is not a usable budget.
    """
    totals = list(yearly_totals)
    if window is not None:
        if window < 2:
            raise InsufficientData("forecast window must cover at least 2 years")
        totals = totals[-window:]
    if len(totals) < 2:
        raise InsufficientData("need at least 2 yearly totals to forecast")
    idx = np.arange(len(totals), dtype=float)
    slope, intercept = ols_line(idx, totals)
    projected = intercept + slope * len(totals)
    return max(0, int(math.floor(projected + 0.5)))


def testing_population_shares(panel: NeighborhoodPanel, year: int) -> tuple[np.ndarray, np.ndarray]:
    """(population share, testing share) vectors for one year, geo_id order."""
    view = panel.view
    column = panel.column(year)
    present = view.present[:, column]
    if not present.all():
        missing = [g for g, p in zip(panel.geo_ids, present) if not p]
        raise DataError(f"year {year} missing records for geos {missing}")
    pop = view.child_population[:, column].astype(float)
    tests = view.tests[:, column].astype(float)
    if pop.sum() <= 0 or tests.sum() <= 0:
        raise DataError(f"year {year} has zero citywide population or tests")
    return pop / pop.sum(), tests / tests.sum()


def write_normalized(norm: NormalizedPanel, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["geo_id", "year", "normalized_rate"])
        for (geo, year), value in sorted(norm.values.items()):
            writer.writerow([geo, year, repr(value)])


def read_normalized(path: str | Path) -> NormalizedPanel:
    values: dict[tuple[int, int], float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            values[(int(row["geo_id"]), int(row["year"]))] = float(row["normalized_rate"])
    years = tuple(sorted({year for _, year in values}))
    geo_ids = tuple(sorted({geo for geo, _ in values}))
    return NormalizedPanel(values=values, years=years, geo_ids=geo_ids)

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

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, write_rows
from .panel import NeighborhoodPanel


class ZeroMean(DataError):
    def __init__(self, year: int | None = None):
        where = f" in year {year}" if year is not None else ""
        super().__init__(f"all rates are zero{where}; mean normalization undefined")
        self.year = year


class NormalizedPanel:
    """Mean-normalized rates of a panel's cells, as a (geo x year) array.

    ``rates`` is float64 with rows in ``geo_ids`` order and columns in
    ``years`` order. ``defined`` marks the cells whose raw rate was defined
    (record exists and tests > 0); the others hold 0.0 in ``rates``, so
    gaps propagate rather than being imputed.

    ``values`` is the {(geo_id, year): rate} dict of the defined cells,
    built year by year the first time it is read.
    """

    def __init__(self, rates: np.ndarray, defined: np.ndarray, years, geo_ids):
        """A panel over the arrays themselves, which become read-only."""
        years, geo_ids = tuple(years), tuple(geo_ids)
        if rates.shape != defined.shape or rates.shape != (len(geo_ids), len(years)):
            raise ValueError(
                f"rates {rates.shape} and defined {defined.shape} must both be "
                f"{len(geo_ids)} geos x {len(years)} years"
            )
        rates.flags.writeable = defined.flags.writeable = False
        self.__dict__.update(rates=rates, defined=defined, years=years, geo_ids=geo_ids)

    def __setattr__(self, name, value):
        raise AttributeError(f"NormalizedPanel is immutable: cannot set {name!r}")

    @cached_property
    def values(self) -> dict[tuple[int, int], float]:
        cols, rows = np.nonzero(self.defined.T)  # year by year
        geos = map(self.geo_ids.__getitem__, rows.tolist())
        years = map(self.years.__getitem__, cols.tolist())
        return dict(zip(zip(geos, years), self.rates[rows, cols].tolist()))


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
    """Normalize each panel year independently; undefined cells stay undefined."""
    view = panel.view
    defined = view.present & (view.tests != 0)
    rates = np.divide(view.cases_5plus, view.tests, out=np.zeros(defined.shape), where=defined)
    for column, year in enumerate(panel.years):
        rows = defined[:, column]
        if rows.any():
            try:
                rates[rows, column] = mean_normalize_year(rates[rows, column])
            except ZeroMean:
                raise ZeroMean(year) from None
    return NormalizedPanel(rates, defined, panel.years, panel.geo_ids)


def ols_line(x, y) -> tuple[float, float]:
    """Closed-form simple least squares: slope and intercept of y on x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_mean = float(np.mean(x))
    y_mean = float(np.mean(y))
    sxx = float(np.sum((x - x_mean) ** 2))
    if sxx == 0.0:
        raise DataError("x has zero variance; line is vertical")
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
        raise ConfigError("need at least 2 points to fit a line")
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

    ``yearly_totals`` must be the totals of consecutive years, oldest
    first: the trend is fitted over their positions, so a missing year
    would be fitted as if it were not there, and the forecast is for the
    year after the last total. ``window`` restricts the fit to the last N
    years; default uses every year given. The forecast is rounded half-up
    and floored at 0, since a negative test count is not a usable budget.
    """
    totals = list(yearly_totals)
    if window is not None:
        if window < 2:
            raise ConfigError("forecast window must cover at least 2 years")
        totals = totals[-window:]
    if len(totals) < 2:
        raise ConfigError("need at least 2 yearly totals to forecast")
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
    """One row per defined cell, in (geo_id, year) order."""
    geo_order = sorted(range(len(norm.geo_ids)), key=norm.geo_ids.__getitem__)
    year_order = sorted(range(len(norm.years)), key=norm.years.__getitem__)
    geo_ids = [norm.geo_ids[i] for i in geo_order]
    years = [norm.years[j] for j in year_order]
    cells = np.ix_(geo_order, year_order)
    rows, cols = np.nonzero(norm.defined[cells])
    rates = norm.rates[cells][rows, cols]
    write_rows(
        path,
        ["geo_id", "year", "normalized_rate"],
        zip(
            map(geo_ids.__getitem__, rows.tolist()),
            map(years.__getitem__, cols.tolist()),
            map(repr, rates.tolist()),
        ),
    )

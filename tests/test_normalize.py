"""Normalization, regression, and forecasting tests.

Closed-form expectations are frozen from exact rational arithmetic: the
regression example with x = (1/5, 3/10, 1/2) and y reversed has slope
-13/14, intercept 9/14, and r^2 = 169/196.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panel_helpers import make_panel, random_panel
from leadalloc.cluster import build_series
from leadalloc.errors import ConfigError, DataError
from leadalloc.normalize import (
    ZeroMean,
    fit_share_regression,
    forecast_total_tests,
    mean_normalize_year,
    normalize_panel,
    ols_line,
)
from leadalloc.normalize import testing_population_shares as population_shares

positive_rates = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


class TestMeanNormalizeYear:
    def test_simple_exact_values(self):
        out = mean_normalize_year([1.0, 2.0, 3.0])
        assert out.tolist() == [0.5, 1.0, 1.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_normalize_year([])

    def test_zero_mean_rejected(self):
        with pytest.raises(ZeroMean):
            mean_normalize_year([0.0, 0.0])

    def test_negative_mean_rejected(self):
        with pytest.raises(ZeroMean):
            mean_normalize_year([-1.0, -2.0])

    @given(positive_rates)
    @settings(max_examples=200, deadline=None)
    def test_mean_is_one(self, rates):
        out = mean_normalize_year(rates)
        assert abs(float(np.mean(out)) - 1.0) <= 1e-9

    @given(positive_rates, st.integers(min_value=-8, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance_power_of_two_exact(self, rates, exponent):
        scale = 2.0**exponent
        base = mean_normalize_year(rates)
        scaled = mean_normalize_year([scale * r for r in rates])
        assert np.array_equal(base, scaled)

    @given(positive_rates)
    @example([1.0, 1e6, 999999.9999999999])  # two rates that divide to one float
    @settings(max_examples=100, deadline=None)
    def test_order_preserved(self, rates):
        # dividing by the mean is monotone only weakly in floats: close rates
        # may meet, but never cross, and equal rates stay equal
        out = mean_normalize_year(rates).tolist()
        for r_i, n_i in zip(rates, out):
            for r_j, n_j in zip(rates, out):
                if r_i < r_j:
                    assert n_i <= n_j
                elif r_i == r_j:
                    assert n_i == n_j
        assert all(v > 0 for v in out)


class TestNormalizePanel:
    def test_fixture_every_year_mean_one(self, fixture_panel):
        norm = normalize_panel(fixture_panel)
        for year in norm.years:
            values = [norm.values[(g, year)] for g in norm.geo_ids]
            assert abs(sum(values) / len(values) - 1.0) <= 1e-9

    def test_years_normalized_independently(self):
        # dyadic rates (16/128, 48/128, 4/128, 12/128) keep every division exact
        panel = make_panel(
            [(1, 2020, 128, 16), (2, 2020, 128, 48), (1, 2021, 128, 4), (2, 2021, 128, 12)]
        )
        norm = normalize_panel(panel)
        assert norm.values[(1, 2020)] == 0.5
        assert norm.values[(2, 2020)] == 1.5
        assert norm.values[(1, 2021)] == 0.5
        assert norm.values[(2, 2021)] == 1.5

    def test_gap_cells_absent_from_output(self):
        panel = make_panel([(1, 2020, 100, 10), (2, 2020, 0, 0), (2, 2021, 100, 5)])
        norm = normalize_panel(panel)
        assert (2, 2020) not in norm.values
        assert (1, 2021) not in norm.values
        assert norm.values[(1, 2020)] == 1.0

    def test_all_zero_year_raises_with_year(self):
        panel = make_panel([(1, 2020, 100, 0), (2, 2020, 100, 0)])
        with pytest.raises(ZeroMean) as excinfo:
            normalize_panel(panel)
        assert excinfo.value.year == 2020

    def test_matches_per_cell_loop_on_random_panels(self):
        """normalize_panel equals the per-year loop over ``panel.record`` that
        the view replaced, bit for bit."""
        rng = np.random.default_rng(31)
        for _ in range(300):
            panel = random_panel(rng)
            expected = {}
            try:
                for year in panel.years:
                    cells = [(g, panel.record(g, year)) for g in panel.geo_ids]
                    cells = [(g, r) for g, r in cells if r is not None and r.tests != 0]
                    if cells:
                        rates = mean_normalize_year([r.cases_5plus / r.tests for _, r in cells])
                        for (geo, _), value in zip(cells, rates):
                            expected[(geo, year)] = float(value)
            except ZeroMean:
                with pytest.raises(ZeroMean):
                    normalize_panel(panel)
                continue
            norm = normalize_panel(panel)
            assert norm.values == expected
            assert list(norm.values) == list(expected)

    def test_series_accessor_ordered(self):
        panel = make_panel(
            [(1, 2021, 100, 5), (1, 2019, 100, 1), (1, 2020, 100, 3), (2, 2019, 100, 3),
             (2, 2020, 100, 3), (2, 2021, 100, 5)]
        )
        norm = normalize_panel(panel)
        assert norm.years == (2019, 2020, 2021)
        assert norm.geo_ids[0] == 1
        assert build_series(norm)[0].tolist() == pytest.approx([0.5, 1.0, 1.0])


class TestOlsLine:
    def test_frozen_example(self):
        slope, intercept = ols_line([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])
        assert math.isclose(slope, -13 / 14, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(intercept, 9 / 14, rel_tol=0, abs_tol=1e-12)

    def test_perfect_line_recovered(self):
        x = np.arange(6, dtype=float)
        slope, intercept = ols_line(x, 3.0 * x + 2.0)
        assert math.isclose(slope, 3.0, abs_tol=1e-12)
        assert math.isclose(intercept, 2.0, abs_tol=1e-12)

    def test_degenerate_x_rejected(self):
        with pytest.raises(DataError, match="x has zero variance; line is vertical"):
            ols_line([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestShareRegression:
    def test_frozen_example(self):
        fit = fit_share_regression([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])
        assert math.isclose(fit.slope, -13 / 14, abs_tol=1e-12)
        assert math.isclose(fit.intercept, 9 / 14, abs_tol=1e-12)
        assert math.isclose(fit.r_squared, 169 / 196, abs_tol=1e-12)
        assert fit.n == 3

    def test_share_sum_validated(self):
        with pytest.raises(ValueError):
            fit_share_regression([0.2, 0.3, 0.4], [0.5, 0.3, 0.2])

    def test_perfect_fit_r_squared_one(self):
        fit = fit_share_regression([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
        assert fit.r_squared == 1.0


class TestForecast:
    def test_linear_trend_exact(self):
        assert forecast_total_tests([100, 110, 120]) == 130

    def test_fixture_totals(self, fixture_panel):
        assert forecast_total_tests(fixture_panel.yearly_test_totals()) == 12480

    def test_window_restricts_fit(self):
        # all three points give slope 55 from the lopsided first step;
        # the last-two window sees only the +10 step
        assert forecast_total_tests([10, 100, 110], window=2) == 120

    def test_declining_trend_floors_at_zero(self):
        assert forecast_total_tests([30, 20, 10, 0]) == 0

    def test_too_short_history(self):
        with pytest.raises(ConfigError, match="need at least 2 yearly totals to forecast"):
            forecast_total_tests([100])

    def test_window_below_two(self):
        with pytest.raises(ConfigError, match="forecast window must cover at least 2 years"):
            forecast_total_tests([100, 110, 120], window=1)


class TestPopulationShares:
    def test_fixture_shapes_and_sums(self, fixture_panel):
        pop_share, test_share = population_shares(fixture_panel, 2021)
        assert pop_share.shape == test_share.shape == (6,)
        assert abs(float(np.sum(pop_share)) - 1.0) <= 1e-9
        assert abs(float(np.sum(test_share)) - 1.0) <= 1e-9

    def test_missing_year_rejected(self, fixture_panel):
        with pytest.raises(DataError):
            population_shares(fixture_panel, 1999)


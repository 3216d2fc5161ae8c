import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from cornrate.core_data import FieldTestRecord, IngestError
from cornrate.trend import (FitResult, TrendError, TrendSeries, default_control,
                            fit_exponential, weather_corrected_series)


def exact_series(k, q0, t0, n):
    return TrendSeries(tuple((t0 + i, q0 * math.exp(k * i)) for i in range(n)))


class TestTrendSeries:
    def test_rejects_duplicate_years(self):
        with pytest.raises(TrendError):
            TrendSeries(((2000, 1.0), (2000, 2.0)))

    def test_rejects_nonpositive_values(self):
        with pytest.raises(TrendError):
            TrendSeries(((2000, 0.0),))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_values(self, value):
        with pytest.raises(TrendError, match="finite"):
            TrendSeries(((2000, 1.0), (2001, value)))

    def test_from_pairs_sorts(self):
        s = TrendSeries.from_pairs([(2001, 2.0), (1999, 1.0)])
        assert s.years == [1999, 2001]

    def test_restrict(self):
        s = TrendSeries(((1999, 1.0), (2000, 2.0), (2001, 3.0)))
        assert s.restrict(2000).years == [2000, 2001]
        assert s.restrict(year_to=2000).years == [1999, 2000]
        assert s.restrict(2000, 2000).years == [2000]

    def test_csv_roundtrip(self, tmp_path):
        s = exact_series(0.02, 1.5, 1990, 8)
        path = tmp_path / "series.csv"
        s.write_csv(path)
        assert TrendSeries.read_csv(path) == s

    def test_read_csv_bom_header(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("\ufeffYear,Value\n2000,1.5\n2001,\"1,7\"\n", encoding="utf-8")
        assert TrendSeries.read_csv(path).points == ((2000, 1.5), (2001, 1.7))

    def test_read_csv_misnamed_header(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("yr,value\n2000,1.5\n", encoding="utf-8")
        with pytest.raises(IngestError, match="missing required column 'year'"):
            TrendSeries.read_csv(path)

    def test_read_csv_short_row(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("year,value\n2000,1.5\n2001\n", encoding="utf-8")
        with pytest.raises(TrendError, match="line 3"):
            TrendSeries.read_csv(path)

    def test_read_csv_long_row(self, tmp_path):
        # A cell past the header's width is an error, not a dropped value.
        path = tmp_path / "series.csv"
        path.write_text("year,value\n2000,1.5\n2001,1.6,1.7\n2002,1.8\n", encoding="utf-8")
        with pytest.raises(TrendError, match="series.csv, line 3: expected 2 fields, found 3"):
            TrendSeries.read_csv(path)

    def test_read_missing_file(self, tmp_path):
        # The IngestError of core_data.read_text, as for every input file.
        with pytest.raises(IngestError, match="missing file"):
            TrendSeries.read_csv(tmp_path / "nope.csv")


class TestFitExponential:
    def test_exact_recovery(self):
        fit = fit_exponential(exact_series(0.03, 2.0, 1980, 10))
        assert fit.k == pytest.approx(0.03, abs=1e-12)
        assert fit.q0 == pytest.approx(2.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_against_scipy_linregress(self):
        rng = random.Random(7)
        years = list(range(1980, 2005))
        values = [math.exp(0.02 * (y - 1980) + rng.gauss(0, 0.1)) for y in years]
        fit = fit_exponential(TrendSeries(tuple(zip(years, values))))
        ref = stats.linregress(years, [math.log(v) for v in values])
        assert fit.k == pytest.approx(ref.slope, abs=1e-12)
        assert fit.r_squared == pytest.approx(ref.rvalue ** 2, abs=1e-12)
        assert fit.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_two_points_no_statistics(self):
        fit = fit_exponential(TrendSeries(((2000, 1.0), (2001, 2.0))))
        assert fit.k == pytest.approx(math.log(2.0), abs=1e-12)
        assert fit.r_squared is None and fit.p_value is None

    def test_flat_series(self):
        fit = fit_exponential(TrendSeries(tuple((y, 5.0) for y in range(2000, 2006))))
        assert fit.k == 0.0
        assert fit.r_squared == 0.0
        assert fit.p_value == 1.0

    def test_single_point_rejected(self):
        with pytest.raises(TrendError):
            fit_exponential(TrendSeries(((2000, 1.0),)))

    def test_as_dict_key(self):
        fit = fit_exponential(exact_series(0.01, 1.0, 2000, 5))
        assert fit.as_dict()["rate_k"] == fit.k

    @settings(max_examples=100)
    @given(st.floats(-0.2, 0.2), st.floats(0.1, 100.0),
           st.integers(1900, 2010), st.integers(3, 40))
    def test_exact_exponential_property(self, k, q0, t0, n):
        fit = fit_exponential(exact_series(k, q0, t0, n))
        assert abs(fit.k - k) < 1e-12

    @given(st.lists(st.floats(0.5, 100.0), min_size=3, max_size=20),
           st.floats(0.1, 10.0))
    def test_scale_invariance_of_k(self, values, factor):
        years = range(2000, 2000 + len(values))
        base = fit_exponential(TrendSeries(tuple(zip(years, values))))
        scaled = fit_exponential(TrendSeries(
            tuple((y, v * factor) for y, v in zip(years, values))))
        assert scaled.k == pytest.approx(base.k, abs=1e-9)


def _row(year, region, hybrid, value):
    return FieldTestRecord("IL", year, region, "B", hybrid, value, 18.0)


def _runs(region, hybrid, years):
    return [_row(y, region, hybrid, 100.0) for y in years]


class TestControls:
    def test_consecutive_run_detected(self):
        # The longest run wins, whatever the names.
        tests = (_runs("North", "LONG", range(1995, 2004))
                 + _runs("North", "AAA", range(1995, 2003))
                 + _runs("North", "SHORT", (1995, 1996)))
        assert default_control(tests, "North") == "LONG"

    def test_gap_breaks_run(self):
        # Nine years in all, but the gap at 1998 leaves runs of 3 and 6.
        years = [1995, 1996, 1997, *range(1999, 2005)]
        tests = _runs("North", "GAPPED", years) + _runs("North", "ZZZ", range(1995, 2002))
        assert default_control(tests, "North") == "ZZZ"

    def test_six_year_run_does_not_count(self):
        tests = _runs("North", "CTRL", [*range(1995, 2001), 2002, 2003])
        with pytest.raises(TrendError, match="7 consecutive years"):
            default_control(tests, "North")
        assert default_control(tests + _runs("North", "CTRL", [2001]), "North") == "CTRL"

    def test_tie_goes_to_first_name(self):
        tests = _runs("North", "B", range(1995, 2002)) + _runs("North", "A", range(2000, 2007))
        assert default_control(tests, "North") == "A"

    def test_regions_independent(self):
        tests = _runs("South", "LONG", range(1990, 2010)) + _runs("North", "C", range(1995, 2002))
        assert default_control(tests, "North") == "C"
        with pytest.raises(TrendError, match="'East'"):
            default_control(tests, "East")


class TestWeatherCorrection:
    def _region(self, k, weather):
        """Two varieties improving at rate k plus a flat control, all scaled
        by a shared per-year weather factor."""
        tests = []
        for i, (year, w) in enumerate(sorted(weather.items())):
            tests.append(_row(year, "North", "CTRL", 100.0 * w))
            tests.append(_row(year, "North", "NEW",
                              130.0 * math.exp(k * i) * w))
        return tests

    def test_weather_cancels_exactly(self):
        weather = {1995 + i: 0.6 + 0.8 * ((i * 7919) % 13) / 13
                   for i in range(12)}
        k = 0.02
        fit = fit_exponential(weather_corrected_series(
            self._region(k, weather), "North", "CTRL"))
        assert abs(fit.k - k) < 1e-12
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_control_must_exist(self):
        with pytest.raises(TrendError, match="absent"):
            weather_corrected_series([_row(2000, "North", "A", 100.0)],
                                     "North", "CTRL")

    def test_restricted_to_control_years(self):
        tests = [_row(2000, "North", "CTRL", 100.0),
                 _row(2000, "North", "A", 120.0),
                 _row(2001, "North", "A", 150.0)]  # no control in 2001
        series = weather_corrected_series(tests, "North", "CTRL")
        assert series.years == [2000]
        assert series.values[0] == pytest.approx(1.2)

    # k bounded below so the improving variety stays above the flat
    # control (130 * exp(k * i) > 100) and remains the regional maximum.
    @settings(max_examples=50)
    @given(st.floats(-0.015, 0.05),
           st.lists(st.floats(0.5, 1.5), min_size=4, max_size=15))
    def test_cancellation_property(self, k, factors):
        weather = {1990 + i: w for i, w in enumerate(factors)}
        fit = fit_exponential(weather_corrected_series(
            self._region(k, weather), "North", "CTRL"))
        assert abs(fit.k - k) < 1e-10

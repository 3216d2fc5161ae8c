"""Exponential (generalized Moore's law) trend fitting.

A performance trend q_t = q0 * exp(k * (t - t0)) is fitted by ordinary
least squares on log(value) versus year, which is how the source trends
are reported (log-scale plots, linear-regression statistics). Also holds
the weather-corrected series construction: dividing each year's best
regional yield by a long-running control variety's yield cancels any
multiplicative weather/soil factor shared within the region and year.
Without a named control, default_control picks the variety with the
region's longest run of consecutive tested years, of at least
DEFAULT_CONTROL_MIN_YEARS.

trend_report is the trend command's one library call: it builds the named
series, from a CSV (the bundled USDA series by default) or from a
dataset, and fits it.

TrendSeries and FitResult are immutable typing.NamedTuple records. A
TrendSeries checks its points when it is constructed, so every series
in hand has strictly increasing years and positive, finite values.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional

from .constants import DEFAULT_CONTROL_MIN_YEARS
from .core_data import (CornrateError, Dataset, FieldTestRecord, IngestError, _parse_number,
                        read_table, write_csv)
from .special import t_sf


class TrendError(CornrateError):
    """Bad series or unmet precondition (e.g. control absent in region)."""


class _Points(NamedTuple):
    points: tuple[tuple[int, float], ...]


class TrendSeries(_Points):
    """(year, value) points, checked on construction: years strictly
    increasing, values positive and finite."""

    __slots__ = ()

    def __new__(cls, points: tuple[tuple[int, float], ...]) -> "TrendSeries":
        years = [y for y, _ in points]
        if any(b <= a for a, b in zip(years, years[1:])):
            raise TrendError("years must be strictly increasing")
        # Written so that NaN fails too: every comparison with NaN is false.
        if not all(0 < v < math.inf for _, v in points):
            raise TrendError("values must be positive and finite")
        return super().__new__(cls, points)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "TrendSeries":
        return cls(tuple(sorted(pairs)))

    @property
    def years(self) -> list[int]:
        return [y for y, _ in self.points]

    @property
    def values(self) -> list[float]:
        return [v for _, v in self.points]

    def restrict(self, year_from: Optional[int] = None,
                 year_to: Optional[int] = None) -> "TrendSeries":
        lo = year_from if year_from is not None else -math.inf
        hi = year_to if year_to is not None else math.inf
        return TrendSeries(tuple(p for p in self.points if lo <= p[0] <= hi))

    def write_csv(self, path) -> None:
        write_csv(path, ["year", "value"], ([year, repr(value)] for year, value in self.points))

    @classmethod
    def read_csv(cls, path) -> "TrendSeries":
        """The series in a CSV file with year and value columns (read_table).

        A missing or undecodable file, or a missing column, is an IngestError;
        a bad row is a TrendError.
        """
        return cls.from_pairs(read_table(
            path, ["year", "value"], lambda year, value: (int(year), _parse_number(value)),
            TrendError))


class FitResult(NamedTuple):
    k: float                      # per-year improvement rate (log-space slope)
    q0: float                     # fitted value at the reference year
    t0: int                       # reference year (first year of the series)
    n: int
    r_squared: Optional[float] = None   # unset for n == 2
    p_value: Optional[float] = None     # two-sided slope t-test, df = n - 2

    def as_dict(self) -> dict:
        return {"rate_k": self.k, "q0": self.q0, "t0": self.t0, "n": self.n,
                "r_squared": self.r_squared, "p_value": self.p_value}


def fit_exponential(series: TrendSeries) -> FitResult:
    """OLS of log(value) on year. Summation order is fixed for determinism."""
    n = len(series.points)
    if n < 2:
        raise TrendError(f"need at least 2 points, got {n}")
    years = series.years
    logs = [math.log(v) for v in series.values]
    x_mean = math.fsum(years) / n
    y_mean = math.fsum(logs) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in years)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(years, logs))
    k = sxy / sxx
    t0 = years[0]
    q0 = math.exp(y_mean + k * (t0 - x_mean))
    if n == 2:
        return FitResult(k=k, q0=q0, t0=t0, n=n)

    residuals = [y - (y_mean + k * (x - x_mean)) for x, y in zip(years, logs)]
    sse = math.fsum(r * r for r in residuals)
    sst = math.fsum((y - y_mean) ** 2 for y in logs)
    r_squared = 1.0 - sse / sst if sst > 0 else 0.0
    df = n - 2
    se = math.sqrt(sse / df / sxx)
    if se == 0.0:
        p_value = 0.0 if k != 0.0 else 1.0
    else:
        p_value = 2.0 * t_sf(abs(k) / se, df)
    return FitResult(k=k, q0=q0, t0=t0, n=n, r_squared=r_squared, p_value=p_value)


def default_control(tests: Iterable[FieldTestRecord], region: str) -> str:
    """The variety with the region's longest run of consecutive tested years.

    Ties go to the first name; a run shorter than DEFAULT_CONTROL_MIN_YEARS
    does not count.
    """
    years_by_variety: dict[str, set[int]] = {}
    for t in tests:
        if t.region == region:
            years_by_variety.setdefault(t.hybrid, set()).add(t.year)
    control, control_run = None, DEFAULT_CONTROL_MIN_YEARS - 1
    for variety, years in sorted(years_by_variety.items()):
        run = longest = 0
        for year in sorted(years):
            run = run + 1 if year - 1 in years else 1
            longest = max(longest, run)
        if longest > control_run:
            control, control_run = variety, longest
    if control is None:
        raise TrendError(f"no variety in region {region!r} was tested in "
                         f"{DEFAULT_CONTROL_MIN_YEARS} consecutive years")
    return control


def weather_corrected_series(tests: Iterable[FieldTestRecord], region: str,
                             control: str) -> TrendSeries:
    """Best regional yield per year divided by the control variety's yield.

    Restricted to the control's tested years in the region; any per-year
    factor multiplying every variety in the region cancels exactly.
    """
    best: dict[int, float] = {}
    control_rows: dict[int, list[float]] = {}
    for t in tests:
        if t.region != region:
            continue
        if t.yield_value > best.get(t.year, 0.0):
            best[t.year] = t.yield_value
        if t.hybrid == control:
            control_rows.setdefault(t.year, []).append(t.yield_value)
    if not control_rows:
        raise TrendError(f"control {control!r} absent in region {region!r}")
    points = []
    for year in sorted(control_rows):
        control_yield = math.fsum(control_rows[year]) / len(control_rows[year])
        points.append((year, best[year] / control_yield))
    return TrendSeries(tuple(points))


def trend_report(series: str, dataset: Optional[Dataset] = None, path=None,
                 region: Optional[str] = None, control: Optional[str] = None,
                 year_from: Optional[int] = None,
                 year_to: Optional[int] = None) -> tuple[dict, TrendSeries]:
    """The named series, restricted to [year_from, year_to], and its report.

    "usda-file" reads the series CSV at path, or the bundled USDA series;
    the other series are built from dataset: "patent-yearly-max" from its
    trial sets, "state-average" from its field tests, and
    "weather-corrected" from the field tests of region against control
    (default_control when none is given). The report holds the series
    name, the control that default_control picked, if it did, and the fit
    (fit_exponential).
    """
    report: dict = {"series": series}
    if series == "usda-file" and path:
        points = TrendSeries.read_csv(path)
    elif series == "usda-file":
        from importlib import resources
        ref = resources.files("cornrate.data") / "usda_us_corn_yield.csv"
        with resources.as_file(ref) as bundled:
            points = TrendSeries.read_csv(bundled)
    elif series == "patent-yearly-max":
        from . import yield_metrics
        points = yield_metrics.yearly_max_yield(
            (dataset.patents[ts.patent_number].filed_year, yield_metrics.summarize(ts))
            for ts in dataset.trial_sets)
    elif series == "state-average":
        from . import yield_metrics
        points = yield_metrics.state_yearly_average(dataset.field_tests)
    elif series == "weather-corrected":
        if not region:
            raise IngestError("--region is required for weather-corrected series")
        if not control:
            control = report["control"] = default_control(dataset.field_tests, region)
        points = weather_corrected_series(dataset.field_tests, region, control)
    else:
        raise IngestError(f"unknown series: {series!r}")
    points = points.restrict(year_from, year_to)
    report.update(fit_exponential(points).as_dict())
    return report, points

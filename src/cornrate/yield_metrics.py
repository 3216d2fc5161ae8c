"""Per-patent and per-year yield statistics.

Definitions, per trial set with N head-to-head tests (P_i patented,
C_i control yields):

    yield_a           = mean_i(P_i)
    yield_b           = max_i(P_i)
    performance_ratio = mean_i(P_i / C_i)     (mean of ratios, not ratio of means)

and per filed year over all summaries, the yearly maximum of yield_b.
The three statistics expect a valid trial set (PatentTrialSet.validate):
summarize validates its set once, and load_dataset every set of a store.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .core_data import FieldTestRecord, PatentTrialSet
from .trend import TrendSeries


class YieldSummary(NamedTuple):
    patent_number: str
    yield_a: float
    yield_b: float
    performance_ratio: float
    n_tests: int


def yield_a(trial_set: PatentTrialSet) -> float:
    yields = [c.patented_yield for c in trial_set.comparisons]
    return math.fsum(yields) / len(yields)


def yield_b(trial_set: PatentTrialSet) -> float:
    return max(c.patented_yield for c in trial_set.comparisons)


def performance_ratio(trial_set: PatentTrialSet) -> float:
    ratios = [c.patented_yield / c.control_yield for c in trial_set.comparisons]
    return math.fsum(ratios) / len(ratios)


def summarize(trial_set: PatentTrialSet) -> YieldSummary:
    """All three statistics of a trial set, which is validated first."""
    trial_set.validate()
    return YieldSummary(
        patent_number=trial_set.patent_number,
        yield_a=yield_a(trial_set),
        yield_b=yield_b(trial_set),
        performance_ratio=performance_ratio(trial_set),
        n_tests=trial_set.n_tests,
    )


def yearly_max_yield(summaries: Iterable[tuple[int, YieldSummary]]) -> TrendSeries:
    """Maximum yield_b among patents filed each year; no interpolation."""
    best: dict[int, float] = {}
    for year, summary in summaries:
        if summary.yield_b > best.get(year, 0.0):   # yields are positive
            best[year] = summary.yield_b
    if not best:
        raise ValueError("no trial sets to summarize")
    return TrendSeries.from_pairs(best.items())


def state_yearly_average(tests: Iterable[FieldTestRecord]) -> TrendSeries:
    """Average yield per year across a state's field tests.

    Averages per (year, region) first and then across regions, so a
    region with more rows does not dominate the year.
    """
    tests = list(tests)
    if not tests:
        raise ValueError("no field tests")
    by_year_region: dict[int, dict[str, list[float]]] = {}
    for t in tests:
        by_year_region.setdefault(t.year, {}).setdefault(t.region, []).append(t.yield_value)
    points = []
    for year in sorted(by_year_region):
        region_means = [math.fsum(v) / len(v)
                        for _, v in sorted(by_year_region[year].items())]
        points.append((year, math.fsum(region_means) / len(region_means)))
    return TrendSeries(tuple(points))

import math

import pytest
from hypothesis import given, strategies as st

from cornrate.core_data import FieldTestRecord, PatentTrialSet, TrialComparison
from cornrate.yield_metrics import (performance_ratio, state_yearly_average,
                                    summarize, yearly_max_yield, yield_a,
                                    yield_b)
from tests.conftest import SNAPSHOT_TRIALS, make_trial_set


def _trial_set(pairs):
    return PatentTrialSet(
        patent_number="p",
        comparisons=[TrialComparison(pat, ctrl, f"C{i}")
                     for i, (pat, ctrl) in enumerate(pairs)])


class TestPerPatentMetrics:
    def test_snapshot_first_patent(self, snapshot_trial_sets):
        s = summarize(snapshot_trial_sets["5502272"])
        # Oracle: hand-computed from the four head-to-head pairs.
        assert s.yield_a == pytest.approx(134.225, abs=1e-3)
        assert s.yield_b == pytest.approx(146.3, abs=1e-12)
        assert s.n_tests == 4

    def test_snapshot_second_patent(self, snapshot_trial_sets):
        s = summarize(snapshot_trial_sets["5491290"])
        assert s.yield_a == pytest.approx(156.4333333, abs=1e-3)
        assert s.yield_b == pytest.approx(159.9, abs=1e-12)

    def test_mean_of_ratios_not_ratio_of_means(self):
        ts = _trial_set([(100.0, 50.0), (100.0, 200.0)])
        # mean of ratios = (2 + 0.5)/2 = 1.25; ratio of means would be 0.8.
        assert performance_ratio(ts) == pytest.approx(1.25, abs=1e-12)

    @given(st.lists(st.tuples(st.floats(1.0, 300.0), st.floats(1.0, 300.0)),
                    min_size=1, max_size=12))
    def test_bounds(self, pairs):
        ts = _trial_set(pairs)
        a, b = yield_a(ts), yield_b(ts)
        patented = [p for p, _ in pairs]
        assert min(patented) - 1e-9 <= a <= b + 1e-9
        assert b == max(patented)
        ratios = [p / c for p, c in pairs]
        assert min(ratios) - 1e-9 <= performance_ratio(ts) <= max(ratios) + 1e-9

    @given(st.lists(st.tuples(st.floats(1.0, 300.0), st.floats(1.0, 300.0)),
                    min_size=1, max_size=12),
           st.floats(0.5, 2.0))
    def test_ratio_scale_invariance(self, pairs, factor):
        """A multiplicative factor applied to both sides of every test cancels."""
        base = _trial_set(pairs)
        scaled = _trial_set([(p * factor, c * factor) for p, c in pairs])
        assert performance_ratio(scaled) == pytest.approx(
            performance_ratio(base), rel=1e-12)

    def test_empty_set_rejected(self):
        ts = PatentTrialSet(patent_number="p", comparisons=[])
        with pytest.raises(ValueError, match="no comparisons"):
            summarize(ts)

    def test_invalid_comparison_rejected(self):
        ts = _trial_set([(150.0, 140.0), (math.nan, 140.0)])
        with pytest.raises(ValueError, match="non-finite"):
            summarize(ts)


class TestYearlyMax:
    def test_groups_by_filed_year(self, snapshot_trial_sets):
        filed = {"5502272": 1995, "5491290": 1995, "5557035": 1996}
        pairs = [(filed[n], summarize(ts))
                 for n, ts in snapshot_trial_sets.items()]
        series = yearly_max_yield(pairs)
        by_year = dict(series.points)
        assert by_year[1995] == pytest.approx(159.9)   # max of 146.3, 159.9
        assert by_year[1996] == pytest.approx(152.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            yearly_max_yield([])


def _row(year, region, hybrid, value):
    return FieldTestRecord("IL", year, region, "B", hybrid, value, 18.0)


class TestStateAverage:
    def test_two_stage_weights_regions_equally(self):
        tests = [_row(2000, "North", "A", 100.0),
                 _row(2000, "North", "B", 100.0),
                 _row(2000, "North", "C", 100.0),
                 _row(2000, "South", "D", 200.0)]
        # Pooled mean would be 125; region-then-year gives (100+200)/2.
        assert dict(state_yearly_average(tests).points)[2000] == pytest.approx(150.0)

    def test_years_sorted(self):
        tests = [_row(2001, "North", "A", 110.0), _row(1999, "North", "A", 90.0)]
        assert state_yearly_average(tests).years == [1999, 2001]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            state_yearly_average([])

    @given(st.lists(st.tuples(st.integers(1990, 2010),
                              st.sampled_from(["North", "South"]),
                              st.floats(10.0, 300.0)),
                    min_size=1, max_size=30))
    def test_average_within_range(self, rows):
        tests = [_row(y, r, f"H{i}", v) for i, (y, r, v) in enumerate(rows)]
        values = [v for _, _, v in rows]
        for _, mean in state_yearly_average(tests).points:
            assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

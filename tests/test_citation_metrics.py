import math

import pytest
from hypothesis import given, strategies as st

from cornrate import constants
from cornrate.citation_metrics import (CitationError, build_internal_edges,
                                       cite3_counts, domain_citation_stats,
                                       per_patent_cite3, predict_k1)
from cornrate.core_data import Dataset, PatentRecord, without_patents
from cornrate.ranking import midrank_percentiles


def _patent(number, granted, cited=(), forward=0):
    return PatentRecord(number, f"Inbred corn line X{number}", "A",
                        granted - 2, granted, cited_patents=list(cited),
                        forward_citation_count=forward)


def _granted(patents):
    return {p.patent_number: p.granted_year for p in patents}


def _collection(patents):
    return {p.patent_number: p for p in patents}


class TestCite3Counts:
    def test_window_boundaries(self):
        # deltas 0, 3 count; delta 4 does not.
        patents = [_patent("T", 2000), _patent("A", 2000), _patent("B", 2003),
                   _patent("C", 2004)]
        edges = [("A", "T"), ("B", "T"), ("C", "T")]
        counts = cite3_counts(patents, edges, _granted(patents))
        assert counts["T"] == 2

    def test_external_citing_year_map(self):
        patents = [_patent("T", 2000)]
        counts = cite3_counts(patents, [("EXT", "T")], {"T": 2000, "EXT": 2002})
        assert counts["T"] == 1

    def test_missing_citing_year_raises(self):
        with pytest.raises(CitationError, match="no publication year"):
            cite3_counts([_patent("T", 2000)], [("EXT", "T")], {"T": 2000})

    def test_backwards_citation_raises(self):
        patents = [_patent("T", 2005), _patent("A", 2000)]
        with pytest.raises(CitationError, match="predates"):
            cite3_counts(patents, [("A", "T")], _granted(patents))

    def test_edges_to_outsiders_ignored(self):
        counts = cite3_counts([_patent("T", 2000)], [("T", "NOTHERE")], {"T": 2000})
        assert counts == {"T": 0}

    @given(st.integers(0, 10))
    def test_count_matches_window_size(self, n_in_window):
        target = _patent("T", 2000)
        citers = [_patent(f"C{i}", 2000 + (i % 4)) for i in range(n_in_window)]
        late = [_patent(f"L{i}", 2005) for i in range(3)]
        edges = [(p.patent_number, "T") for p in citers + late]
        patents = [target] + citers + late
        counts = cite3_counts(patents, edges, _granted(patents))
        assert counts["T"] == n_in_window


class TestAggregates:
    def test_compute_cite3_is_mean(self):
        patents = [_patent("A", 2000), _patent("B", 2001, cited=["A"]),
                   _patent("C", 2001, cited=["A", "B"])]
        stats = domain_citation_stats(_collection(patents), patents)
        assert stats["cite3"] == pytest.approx(1.0)

    def test_ave_pub_year(self):
        patents = [_patent("A", 1998), _patent("B", 2004)]
        stats = domain_citation_stats(_collection(patents), patents)
        assert stats["ave_pub_year"] == pytest.approx(2001.0)

    def test_ave_pub_year_of_the_slice(self):
        # Patents outside the slice cite into it but do not enter the mean.
        patents = [_patent("A", 1998), _patent("B", 2004),
                   _patent("C", 2000, cited=["A"]), _patent("D", 2010)]
        stats = domain_citation_stats(_collection(patents), patents[:2])
        assert stats["ave_pub_year"] == pytest.approx(2001.0)
        assert (stats["spc"], stats["cite3_total"]) == (2, 1)

    def test_empty_rejected(self):
        with pytest.raises(CitationError):
            domain_citation_stats({}, [])

    def test_build_internal_edges(self):
        patents = {"A": _patent("A", 2000, cited=["B", "ZZZ"]),
                   "B": _patent("B", 1999)}
        assert build_internal_edges(patents) == [("A", "B")]


class TestPredictK1:
    def test_coefficients(self):
        # Oracle: -31.1285 + 0.0155 * 2000 + 0.1406 * 0 = -0.1285.
        assert predict_k1(2000.0, 0.0) == pytest.approx(-0.1285, abs=1e-12)

    def test_linear_in_both_arguments(self):
        assert (predict_k1(2000.0, 5.0) - predict_k1(2000.0, 4.0)
                ) == pytest.approx(constants.K1_CITE3, abs=1e-12)
        assert (predict_k1(2001.0, 1.0) - predict_k1(2000.0, 1.0)
                ) == pytest.approx(constants.K1_AVE_PUB_YEAR, abs=1e-12)

    @given(st.floats(1970.0, 2020.0), st.floats(0.0, 50.0))
    def test_matches_direct_formula(self, year, cite3):
        direct = -31.1285 + 0.0155 * year + 0.1406 * cite3
        assert predict_k1(year, cite3) == pytest.approx(direct, abs=1e-9)


class TestMidrankPercentiles:
    def test_no_ties(self):
        ranks = midrank_percentiles({"a": 1, "b": 2, "c": 3},
                                    {"a": 0, "b": 0, "c": 0})
        assert ranks == {"a": 0.5 / 3, "b": 1.5 / 3, "c": 2.5 / 3}

    def test_ties_share_midrank(self):
        ranks = midrank_percentiles({"a": 5, "b": 5, "c": 1, "d": 9},
                                    {k: 0 for k in "abcd"})
        assert ranks["a"] == ranks["b"] == pytest.approx(2.0 / 4)
        assert ranks["c"] == pytest.approx(0.5 / 4)
        assert ranks["d"] == pytest.approx(3.5 / 4)

    def test_cohorts_independent(self):
        ranks = midrank_percentiles({"a": 100, "b": 1}, {"a": 1999, "b": 2000})
        assert ranks == {"a": 0.5, "b": 0.5}

    @given(st.dictionaries(st.text("xyz", min_size=1, max_size=4),
                           st.tuples(st.integers(0, 3), st.integers(0, 20)),
                           min_size=1, max_size=40))
    def test_cohort_mean_is_half(self, data):
        values = {k: float(v) for k, (_, v) in data.items()}
        cohort_of = {k: c for k, (c, _) in data.items()}
        ranks = midrank_percentiles(values, cohort_of)
        for cohort in set(cohort_of.values()):
            members = [k for k in values if cohort_of[k] == cohort]
            mean = math.fsum(ranks[k] for k in members) / len(members)
            assert mean == pytest.approx(0.5, abs=1e-12)

    @given(st.dictionaries(st.integers(0, 50), st.integers(0, 10),
                           min_size=2, max_size=30))
    def test_monotone_within_cohort(self, values):
        ranks = midrank_percentiles(values, {k: 0 for k in values})
        items = sorted(values.items(), key=lambda kv: kv[1])
        for (k1, v1), (k2, v2) in zip(items, items[1:]):
            if v1 < v2:
                assert ranks[k1] < ranks[k2]
            else:
                assert ranks[k1] == ranks[k2]


class TestDomainStats:
    def _domain(self):
        return [
            _patent("A", 1998, forward=4),
            _patent("B", 2000, cited=["A"], forward=2),
            _patent("C", 2001, cited=["A", "B"], forward=0),
            _patent("D", 2005, cited=["A"], forward=1),
        ]

    def test_full_stats(self):
        patents = self._domain()
        stats = domain_citation_stats(_collection(patents), patents)
        assert stats["spc"] == 4
        # In-window citations: B->A (d=2), C->A (d=3), C->B (d=1); D->A d=7 out.
        assert stats["cite3_total"] == 3
        assert stats["cite3"] == pytest.approx(0.75)
        assert stats["ave_pub_year"] == pytest.approx(2001.0)
        assert stats["k1"] == pytest.approx(predict_k1(2001.0, 0.75), abs=1e-12)
        edges = build_internal_edges(_collection(patents))
        assert cite3_counts(patents, edges, _granted(patents)) == {"A": 2, "B": 1, "C": 0, "D": 0}

    def _without(self, numbers):
        return without_patents(Dataset(patents=_collection(self._domain())), numbers).patents

    def test_exclusions_drop_patents_and_edges(self):
        # An excluded patent leaves the slice, and its citations leave the collection.
        kept = self._without(("C",))
        stats = domain_citation_stats(kept, kept.values())
        assert stats["spc"] == 3
        assert stats["cite3_total"] == 1   # only B->A is left in the window

    def test_all_excluded_raises(self):
        kept = self._without(("A", "B", "C", "D"))
        with pytest.raises(CitationError, match="no domain patents"):
            domain_citation_stats(kept, kept.values())

    def test_rank_percentiles_cohorted_by_grant_year(self):
        counts, percentiles = per_patent_cite3(_collection(self._domain()))
        assert counts == {"A": 2, "B": 1, "C": 0, "D": 0}
        # Each grant year is its own one-patent cohort here.
        assert percentiles == {"A": 0.5, "B": 0.5, "C": 0.5, "D": 0.5}

import pytest
from hypothesis import given, strategies as st

from cornrate.core_data import (Dataset, FieldTestRecord, PatentKind, PatentRecord,
                                load_dataset, save_dataset)
from cornrate.title_parser import (PatternPosition, PrefixEntry, PrefixTable,
                                   classify_patent_kind, extract_variety_name,
                                   match_patented_varieties, normalize_variety,
                                   annotate_patents)


@pytest.fixture(scope="module")
def table():
    return PrefixTable.default()


class TestExtractVarietyName:
    @pytest.mark.parametrize("title,expected", [
        ("Inbred corn line NP2073", "NP2073"),
        ("Hybrid maize variety X13088", "X13088"),
        ("Hybrid corn plant and seed 3563", "3563"),
        ("Inbred maize line PH1234", "PH1234"),
        ("Corn variety 3489", "3489"),
    ])
    def test_known_prefixes(self, table, title, expected):
        variety, matched = extract_variety_name(title, table)
        assert (variety, matched) == (expected, True)

    def test_no_match_fallback(self, table):
        variety, matched = extract_variety_name("Method of making popcorn", table)
        assert variety == "Method of making popcorn"
        assert matched is False

    def test_longest_pattern_wins(self, table):
        # "Inbred corn line " must win over the bare "inbred " entry.
        variety, _ = extract_variety_name("Inbred corn line NP2073", table)
        assert variety == "NP2073"

    def test_empty_title_rejected(self, table):
        with pytest.raises(ValueError):
            extract_variety_name("", table)

    @given(st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", min_size=1, max_size=10))
    def test_prefix_plus_designator_roundtrip(self, designator):
        table = PrefixTable.default()
        for entry in table.entries:
            if entry.position.value != "prefix":
                continue
            variety, matched = extract_variety_name(entry.pattern + designator, table)
            assert matched
            # Any pattern yields the designator, possibly after a longer
            # pattern absorbed part of it; the designator must survive.
            assert variety.endswith(designator) or variety == designator

    @given(st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", min_size=1, max_size=10))
    def test_idempotent(self, designator):
        table = PrefixTable.default()
        for entry in table.entries[:10]:
            title = (entry.pattern + designator if entry.position.value == "prefix"
                     else designator + entry.pattern)
            once, _ = extract_variety_name(title, table)
            if not once:
                continue
            twice, _ = extract_variety_name(once, table)
            assert twice == once


class TestClassify:
    @pytest.mark.parametrize("title,kind", [
        ("Inbred corn line NP2073", PatentKind.INBRED),
        ("Hybrid corn variety 3489", PatentKind.HYBRID),
        ("Hybrid maize variety X1", PatentKind.HYBRID),
        ("Maize variety 77", PatentKind.HYBRID),
        ("Corn variety 88", PatentKind.HYBRID),
        ("Corn transformation method", PatentKind.OTHER),
        ("Hybrid corn line 5", PatentKind.INBRED),  # "line" wins
    ])
    def test_rules(self, title, kind):
        assert classify_patent_kind(title) is kind

    def test_line_whole_word_only(self):
        assert classify_patent_kind("Corn lineage tracing") is PatentKind.OTHER

    @given(st.sampled_from([
        "Inbred corn line NP2073", "Hybrid corn variety 3489",
        "Method of making popcorn", "Corn lineage tracing"]))
    def test_case_insensitive(self, title):
        assert classify_patent_kind(title) is classify_patent_kind(title.upper())


class TestMatching:
    def _patent(self, number, variety):
        return PatentRecord(number, f"Hybrid corn variety {variety}", "X", 1990, 1992,
                            variety_name=variety, kind=PatentKind.HYBRID)

    def _test_row(self, hybrid, year=2000):
        return FieldTestRecord("IL", year, "North", "B", hybrid, 150.0, 18.0)

    def test_exact_match(self):
        report = match_patented_varieties([self._patent("1", "3563")],
                                          [self._test_row("3563")])
        assert report.matches == {"1": [0]}
        assert report.unmatched_patents == []

    def test_naming_gap_reported(self):
        report = match_patented_varieties([self._patent("1", "CH123456")],
                                          [self._test_row("DK5353")])
        assert report.matches == {}
        assert report.unmatched_patents == ["1"]

    def test_normalization(self):
        report = match_patented_varieties([self._patent("1", "dk 535")],
                                          [self._test_row("DK535")])
        assert report.matches == {"1": [0]}

    @given(st.text(alphabet="abcDEF 0-9", min_size=1, max_size=12))
    def test_normalization_symmetry(self, name):
        a, b = name, name.lower().replace("-", " ")
        assert (normalize_variety(a) == normalize_variety(b)) == bool(
            match_patented_varieties(
                [self._patent("1", a)], [self._test_row(b)]).matches)


def test_annotate_patents_flags_unmatched():
    patents = [
        PatentRecord("1", "Inbred corn line NP2073", "A", 1990, 1992),
        PatentRecord("2", "Method of making popcorn", "A", 1990, 1992),
    ]
    unmatched = annotate_patents(patents)
    assert unmatched == ["2"]
    assert patents[0].variety_name == "NP2073"
    assert patents[0].kind is PatentKind.INBRED
    assert patents[1].kind is PatentKind.OTHER


def test_title_that_is_only_a_pattern_round_trips(tmp_path):
    table = PrefixTable([PrefixEntry("Hybrid corn", PatternPosition.PREFIX)])
    patents = [PatentRecord("1", "Hybrid corn", "A", 1990, 1992)]
    assert annotate_patents(patents, table) == []
    assert patents[0].variety_name is None
    dataset = Dataset(patents={"1": patents[0]})
    save_dataset(dataset, tmp_path / "ds")
    assert load_dataset(tmp_path / "ds") == dataset

import pytest
from hypothesis import given, strategies as st

from cornrate.core_data import Dataset, PatentKind, PatentRecord, load_dataset, save_dataset
from cornrate.title_parser import (PatternPosition, PrefixEntry, PrefixTable,
                                   annotate_patents, classify_patent_kind,
                                   extract_variety_name)


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


def _linear_scan(title, table):
    """extract_variety_name as a test of every entry in table order."""
    for entry in table.entries:
        test = {PatternPosition.PREFIX: title.startswith, PatternPosition.SUFFIX: title.endswith,
                PatternPosition.INFIX: title.__contains__}[entry.position]
        if test(entry.pattern):
            return title.replace(entry.pattern, "").strip(), True
    return title.strip(), False


# Few letters and many spaces, so that patterns share first words, hold no
# space or start with one, and often apply.
_TEXT = st.text(alphabet="ab ", min_size=1, max_size=6)


@given(st.lists(st.builds(PrefixEntry, _TEXT, st.sampled_from(list(PatternPosition))),
                min_size=1, max_size=8),
       st.lists(_TEXT, min_size=1, max_size=10))
def test_first_applicable_entry_wins_as_in_a_linear_scan(entries, titles):
    table = PrefixTable(entries)
    for title in titles:
        assert extract_variety_name(title, table) == _linear_scan(title, table)


def test_bundled_table_agrees_with_a_linear_scan(table):
    for entry in table.entries:
        for title in (entry.pattern + "X1", "X1 " + entry.pattern, entry.pattern,
                      entry.pattern.lower() + "X1", entry.pattern.upper() + "X1"):
            assert extract_variety_name(title, table) == _linear_scan(title, table)


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


def test_annotate_patents_flags_unmatched():
    patents = [
        PatentRecord("1", "Inbred corn line NP2073", "A", 1990, 1992),
        PatentRecord("2", "Method of making popcorn", "A", 1990, 1992),
    ]
    patents, unmatched = annotate_patents(patents)
    assert unmatched == ["2"]
    assert patents[0].variety_name == "NP2073"
    assert patents[0].kind is PatentKind.INBRED
    assert patents[1].kind is PatentKind.OTHER


def test_title_that_is_only_a_pattern_round_trips(tmp_path):
    table = PrefixTable([PrefixEntry("Hybrid corn", PatternPosition.PREFIX)])
    patents = [PatentRecord("1", "Hybrid corn", "A", 1990, 1992)]
    patents, unmatched = annotate_patents(patents, table)
    assert unmatched == []
    assert patents[0].variety_name is None
    dataset = Dataset(patents={"1": patents[0]})
    save_dataset(dataset, tmp_path / "ds")
    assert load_dataset(tmp_path / "ds") == dataset

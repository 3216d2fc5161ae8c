import codecs
import copy
import gc
import importlib.util
import math
import os
import re
import tracemalloc
from pathlib import Path
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cornrate.cli import main
from cornrate.core_data import (CornrateError, Dataset, FieldTestSchema, IngestError,
                                DatasetError, Maturity, PatentKind, PatentRecord,
                                PatentTrialSet, TrialComparison, FieldTestRecord,
                                load_dataset, load_field_tests, load_patents, load_trial_sets,
                                read_table, save_dataset, without_patents)
from cornrate.ingest import LoadReport, infer_missing_year_average
from tests.synthetic import synthetic_dataset

STORE_FILES = ["fieldtests.csv", "manifest.json", "patents.csv", "trials.csv"]


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


PATENT_HEADER = "patent_number,title,assignee,filed_year,granted_year,forward_citations,cited_patents\n"


def pair(a: str, b: str) -> tuple[int, int]:
    return int(a), int(b)


first_two = ["a", "b"]


class TestReadTable:
    TEXT = "a,b\n1,2\n\n3\n4,x\n\n5,6,7\n8,9\n"

    def test_strict_names_file_and_physical_line(self, tmp_path):
        # The short row "3" is on line 4, after a blank line that is not a row.
        p = write(tmp_path / "t.csv", self.TEXT)
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(p))}, line 4: "
                                               r"expected 2 fields, found 1$"):
            list(read_table(p, first_two, pair, DatasetError))
        p = write(tmp_path / "t.csv", "a,b\n\n1,2\n\n4,x\n")
        with pytest.raises(IngestError, match=rf"^{re.escape(str(p))}, line 5: invalid literal"):
            list(read_table(p, first_two, pair))

    def test_row_errors_collected_and_reading_goes_on(self, tmp_path):
        p = write(tmp_path / "t.csv", self.TEXT)
        errors = []
        assert list(read_table(p, first_two, pair, row_errors=errors)) == [(1, 2), (8, 9)]
        assert [index for index, _ in errors] == [1, 2, 3]
        assert errors[0] == (1, "expected 2 fields, found 1")
        assert "invalid literal" in errors[1][1]
        assert errors[2] == (3, "expected 2 fields, found 3")

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from(["1,2", "", "3", "4,x", "5,6,7", " ,8", "9,10"]),
                    max_size=12))
    def test_every_row_is_a_record_or_an_error(self, tmp_path_factory, lines):
        p = write(tmp_path_factory.mktemp("t") / "t.csv", "\n".join(["a,b", *lines]) + "\n")
        errors = []
        records = list(read_table(p, first_two, pair, row_errors=errors))
        rows = [line for line in lines if line]
        assert len(records) + len(errors) == len(rows)
        assert [index for index, _ in errors] == [
            i for i, row in enumerate(rows) if row not in ("1,2", "9,10")]


class TestLoadPatents:
    def test_basic_row(self, tmp_path):
        p = write(tmp_path / "p.csv", PATENT_HEADER +
                  '5502272,Hybrid corn plant and seed 3563,PIONEER,1994,1996,12,4629819;4607453\n')
        report = load_patents(p)
        assert report.row_errors == []
        (rec,) = report.records
        assert rec.patent_number == "5502272"
        assert rec.filed_year == 1994
        assert rec.granted_year == 1996
        assert rec.forward_citation_count == 12
        assert rec.cited_patents == ["4629819", "4607453"]
        assert rec.variety_name is None and rec.kind is None

    def test_header_only(self, tmp_path):
        p = write(tmp_path / "p.csv", PATENT_HEADER)
        report = load_patents(p)
        assert report.records == [] and report.row_errors == []

    def test_year_order_violation_is_row_error(self, tmp_path):
        p = write(tmp_path / "p.csv", PATENT_HEADER +
                  "1,t,A,1995,1990,0,\n2,t,A,1990,1995,0,\n")
        report = load_patents(p)
        assert len(report.records) == 1
        assert len(report.row_errors) == 1
        assert "year order" in report.row_errors[0][1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="missing file"):
            load_patents(tmp_path / "nope.csv")

    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
    def test_bundled_fixture(self, tmp_path, bom):
        bundled = resources.files("cornrate.data") / "synthetic" / "patents.csv"
        p = tmp_path / "patents.csv"
        p.write_bytes(bom + bundled.read_bytes())
        report = load_patents(p)
        assert report.row_errors == []
        assert len(report.records) == 70
        assert report.records[0].patent_number == "5000000"

    def test_missing_column(self, tmp_path):
        p = write(tmp_path / "p.csv", "patent_number,title\n1,t\n")
        with pytest.raises(IngestError, match="missing required column"):
            load_patents(p)

    def test_duplicate_patent_number(self, tmp_path):
        p = write(tmp_path / "p.csv", PATENT_HEADER + "1,t,A,1990,1995,0,\n1,t,A,1990,1995,0,\n")
        with pytest.raises(IngestError, match=rf"^duplicate patent_number 1 in {re.escape(str(p))}$"):
            load_patents(p)

    def test_unparsable_year_is_row_error(self, tmp_path):
        p = write(tmp_path / "p.csv", PATENT_HEADER + "1,t,A,abc,1995,0,\n")
        report = load_patents(p)
        assert report.records == []
        assert len(report.row_errors) == 1

    def test_wrong_width_is_row_error(self, tmp_path):
        p = write(tmp_path / "p.csv", PATENT_HEADER +
                  "1,t,A,1990,1995,0\n\n2,t,A,1990,1995,0,,x\n3,t,A,1990,1995,0,\n")
        report = load_patents(p)
        assert [r.patent_number for r in report.records] == ["3"]
        assert report.row_errors == [(0, "expected 7 fields, found 6"),
                                     (1, "expected 7 fields, found 8")]

    def test_accounting(self, tmp_path):
        p = write(tmp_path / "p.csv", PATENT_HEADER +
                  "1,t,A,1990,1995,0,\n2,t,A,1999,1995,0,\n3,t,A,1990,1995,-1,\n4,t,A,1990,1995,2,\n")
        report = load_patents(p)
        assert len(report.records) + len(report.row_errors) == 4


class TestLoadFieldTests:
    def test_kentucky_row(self, tmp_path):
        p = write(tmp_path / "ky.csv",
                  "MATURITY,YEAR,BRAND,HYBRID,YIELD,MOIST,STAND\n"
                  "EARLY,1998,PIONEER,33G26,190.3*,14.4,96.2\n")
        report = load_field_tests(p, "kentucky", state="KY")
        (rec,) = report.records
        assert rec.year == 1998
        assert rec.hybrid == "33G26"
        assert rec.yield_value == 190.3
        assert rec.significant is True
        assert rec.moisture == 14.4
        assert rec.stand == 96.2
        assert rec.maturity is Maturity.EARLY
        assert rec.region == "STATE_AVG"

    def test_illinois_row(self, tmp_path):
        p = write(tmp_path / "il.csv",
                  "Year,Region,Brand,Hybrid,Yield,Moisture\n"
                  '1995,1_Woodstoc,CARGILL,4277,158,"19,8"\n')
        report = load_field_tests(p, FieldTestSchema.ILLINOIS_LIKE)
        (rec,) = report.records
        assert rec.year == 1995
        assert rec.region == "1_Woodstoc"
        assert rec.hybrid == "4277"
        assert rec.yield_value == 158
        assert rec.moisture == 19.8

    def test_nonpositive_yield_rejected(self, tmp_path):
        p = write(tmp_path / "il.csv",
                  "Year,Region,Brand,Hybrid,Yield,Moisture\n1995,N,B,X,0,19.8\n")
        report = load_field_tests(p, "illinois")
        assert report.records == []
        assert "nonpositive yield" in report.row_errors[0][1]

    @pytest.mark.parametrize("schema, header, row", [
        ("illinois", "Year,Region,Brand,Hybrid,Yield,Moisture", "1995,N,B,X,158,19.8"),
        ("kentucky", "MATURITY,YEAR,BRAND,HYBRID,YIELD,MOIST,STAND",
         "EARLY,1998,P,X,190.3,14.4,96.2"),
    ])
    def test_wrong_width_is_row_error(self, tmp_path, schema, header, row):
        width = header.count(",") + 1
        short, long = row.rsplit(",", 1)[0], row + ",x"
        p = write(tmp_path / "f.csv", "\n".join([header, short, "", long, row]) + "\n")
        report = load_field_tests(p, schema)
        assert len(report.records) == 1
        assert report.row_errors == [(0, f"expected {width} fields, found {width - 1}"),
                                     (1, f"expected {width} fields, found {width + 1}")]

    def test_unknown_schema(self, tmp_path):
        p = write(tmp_path / "x.csv", "a\n1\n")
        with pytest.raises(IngestError, match="unknown schema"):
            load_field_tests(p, "ohio")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.sampled_from(["158", "19,8", "0", "nan", "NaN", "inf",
                                                 "-inf", "1e999", "x", ""])] * 2),
                    max_size=8))
    def test_accounting_with_nonfinite_values(self, tmp_path_factory, cells):
        p = write(tmp_path_factory.mktemp("il") / "il.csv",
                  "Year,Region,Brand,Hybrid,Yield,Moisture\n" +
                  "".join(f'1995,N,B,X,"{y}","{m}"\n' for y, m in cells))
        report = load_field_tests(p, "illinois")
        assert len(report.records) + len(report.row_errors) + report.skipped == len(cells)
        for rec in report.records:
            assert math.isfinite(rec.yield_value) and math.isfinite(rec.moisture)

    @pytest.mark.parametrize("field", ["yield_value", "moisture", "stand"])
    def test_validate_rejects_nonfinite(self, field):
        rec = FieldTestRecord("IL", 1995, "N", "B", "X", 158.0, 19.8, stand=96.0)
        rec = rec._replace(**{field: math.nan})
        with pytest.raises(ValueError, match="non-finite"):
            rec.validate()

    @pytest.mark.parametrize("text", ["158", "158.0", "158,0"])
    def test_locale_robust(self, tmp_path, text):
        p = write(tmp_path / "il.csv",
                  "Year,Region,Brand,Hybrid,Yield,Moisture\n"
                  f'1995,N,B,X,"{text}",19.8\n')
        report = load_field_tests(p, "illinois")
        assert report.records[0].yield_value == 158.0


TRIAL_HEADER = "patent_number,patented_variety,control_variety,patented_yield,control_yield\n"


class TestLoadTrialSets:
    def test_grouping(self, tmp_path):
        rows = "".join(
            f'5502272,3563,{c},"{p}","{c_y}"\n'
            for c, p, c_y in [("3615", "99,7", "99,6"), ("3578", "146,3", "144,2"),
                              ("3475", "146", "146,5"), ("DK535", "144,9", "143")])
        p = write(tmp_path / "t.csv", TRIAL_HEADER + rows)
        report = load_trial_sets(p)
        (ts,) = report.records
        assert ts.n_tests == 4
        assert ts.comparisons[0].patented_yield == 99.7

    def test_avg_rows_skipped(self, tmp_path):
        p = write(tmp_path / "t.csv", TRIAL_HEADER +
                  "1,v,A,100,99\n1,v,AVG,134.2,133.3\n")
        report = load_trial_sets(p)
        assert report.skipped == 1
        assert report.records[0].n_tests == 1

    def test_single_row_group(self, tmp_path):
        p = write(tmp_path / "t.csv", TRIAL_HEADER + "1,v,A,100,99\n")
        report = load_trial_sets(p)
        assert report.records[0].n_tests == 1

    def test_avg_only_group_errors(self, tmp_path):
        p = write(tmp_path / "t.csv", TRIAL_HEADER + "1,v,AVG,134.2,133.3\n")
        report = load_trial_sets(p)
        assert report.records == []
        assert any("no comparisons" in m for _, m in report.row_errors)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_nonfinite_yield_is_row_error(self, tmp_path, text):
        p = write(tmp_path / "t.csv", TRIAL_HEADER +
                  f"1,v,A,100,99\n1,v,B,{text},99\n2,v,C,80,{text}\n")
        report = load_trial_sets(p)
        n_comparisons = sum(ts.n_tests for ts in report.records)
        row_errors = [e for e in report.row_errors if e[0] >= 0]
        assert [r for r, _ in row_errors] == [1, 2]
        assert n_comparisons + len(row_errors) + report.skipped == 3

    def test_wrong_width_is_row_error(self, tmp_path):
        p = write(tmp_path / "t.csv", TRIAL_HEADER +
                  "1,v,A,100\n1,v,AVG\n\n1,v,B,100,99,x\n1,v,C,100,99\n")
        report = load_trial_sets(p)
        assert [ts.n_tests for ts in report.records] == [1]
        assert report.skipped == 0
        assert report.row_errors == [(0, "expected 5 fields, found 4"),
                                     (1, "expected 5 fields, found 3"),
                                     (2, "expected 5 fields, found 6")]

    @pytest.mark.parametrize("values", [(math.nan, 99.0), (100.0, math.inf),
                                        (100.0, 99.0, math.nan)])
    def test_validate_rejects_nonfinite(self, values):
        with pytest.raises(ValueError, match="non-finite"):
            TrialComparison(values[0], values[1], "c", *values[2:]).validate()

    def test_accounting(self, tmp_path):
        p = write(tmp_path / "t.csv", TRIAL_HEADER +
                  "1,v,A,100,99\n1,v,AVG,1,1\n1,v,B,0,99\n2,v,C,80,81\n")
        report = load_trial_sets(p)
        n_comparisons = sum(ts.n_tests for ts in report.records)
        row_errors = [e for e in report.row_errors if e[0] >= 0]
        assert n_comparisons + len(row_errors) + report.skipped == 4


def _or_numpy(values, numpy_type):
    """Values of a strategy, some of them as numpy scalars of numpy_type."""
    return st.one_of(values, values.map(numpy_type))


# Any UTF-8 text but NUL, which csv cannot read before Python 3.11.
_CHAR = st.characters(codec="utf-8", exclude_characters="\x00")
_TEXT = st.text(_CHAR, max_size=10)
# Cited patent numbers are stored joined by ";", so save_dataset refuses a
# cited number that holds one or is empty; ";" is drawn often to reach that.
_NUMBER = st.text(_CHAR | st.just(";"), min_size=1, max_size=8)
_YEAR = _or_numpy(st.integers(1900, 2100), np.int64)
_FINITE = _or_numpy(st.floats(allow_nan=False, allow_infinity=False), np.float64)
_POSITIVE = _or_numpy(st.floats(min_value=0, exclude_min=True, allow_infinity=False),
                      np.float64)


@st.composite
def _patent(draw, number):
    filed = draw(_YEAR)
    return PatentRecord(
        patent_number=number, title=draw(_TEXT), assignee=draw(_TEXT), filed_year=filed,
        granted_year=filed + draw(_or_numpy(st.integers(0, 5), np.int64)),
        cited_patents=draw(st.lists(_NUMBER | st.just(""), max_size=3)),
        forward_citation_count=draw(_or_numpy(st.integers(0, 10 ** 6), np.int64)),
        variety_name=draw(st.none() | _TEXT), kind=draw(st.none() | st.sampled_from(PatentKind)))


def _unstorable(dataset) -> bool:
    """Whether a patent holds a value the store would load back changed."""
    return any(p.variety_name == "" or any(c == "" or ";" in c for c in p.cited_patents)
               for p in dataset.patents.values())


_COMPARISON = st.builds(TrialComparison, _POSITIVE, _POSITIVE, _TEXT,
                        st.none() | _FINITE, st.none() | _FINITE)
_FIELD_TEST = st.builds(
    FieldTestRecord, _TEXT, _YEAR, _TEXT, _TEXT, _TEXT, _POSITIVE,
    _or_numpy(st.floats(0, 100), np.float64), maturity=st.none() | st.sampled_from(Maturity),
    stand=st.none() | _FINITE, significant=_or_numpy(st.booleans(), np.bool_))


@st.composite
def datasets(draw):
    """Datasets of records that pass validate(), and trial sets of distinct
    patents in the dataset with at least one comparison: all the store can
    hold, and patents it refuses (_unstorable)."""
    numbers = draw(st.lists(_NUMBER, max_size=5, unique=True))
    patents = {n: draw(_patent(n)) for n in numbers}
    tested = draw(st.lists(st.sampled_from(numbers), unique=True)) if numbers else []
    return Dataset(
        patents=patents,
        trial_sets=[PatentTrialSet(n, draw(st.lists(_COMPARISON, min_size=1, max_size=3)))
                    for n in tested],
        field_tests=draw(st.lists(_FIELD_TEST, max_size=4)))


class TestDatasetStore:
    def _dataset(self):
        patents = {
            "1": PatentRecord("1", "Hybrid corn variety A1", "PIONEER", 1990, 1992,
                              ["9"], 3, variety_name="A1", kind=PatentKind.HYBRID),
            "2": PatentRecord("2", "Inbred corn line B2", "DEKALB", 1995, 1996,
                              [], 0, variety_name="B2", kind=PatentKind.INBRED),
            "3": PatentRecord("3", "Method of making popcorn", "X", 1999, 2001),
        }
        trial_sets = [
            PatentTrialSet("1", [TrialComparison(100.5, 99.0, "c1", 15.0, None)]),
            PatentTrialSet("2", [TrialComparison(80.0, 81.0, "c2"),
                                 TrialComparison(90.0, 85.5, "c3")]),
        ]
        field_tests = [
            FieldTestRecord("KY", 1998, "STATE_AVG", "PIONEER", "33G26", 190.3, 14.4,
                            maturity=Maturity.EARLY, stand=96.2, significant=True),
            FieldTestRecord("IL", 1995, "1_Woodstoc", "CARGILL", "4277", 158.0, 19.8),
        ]
        return Dataset(patents=patents, trial_sets=trial_sets, field_tests=field_tests)

    def test_round_trip(self, tmp_path):
        # The synthetic fixture holds numpy float64 yields.
        for i, d in enumerate([self._dataset(), synthetic_dataset()]):
            save_dataset(d, tmp_path / f"ds{i}")
            loaded = load_dataset(tmp_path / f"ds{i}")
            assert loaded == d

    @settings(max_examples=80, deadline=None)
    @given(dataset=datasets())
    def test_round_trip_any_dataset(self, tmp_path_factory, dataset):
        # The store loads back the dataset it saved, or refuses to save it.
        directory = tmp_path_factory.mktemp("ds")
        if _unstorable(dataset):
            with pytest.raises(DatasetError, match="^patent "):
                save_dataset(dataset, directory)
        else:
            save_dataset(dataset, directory)
            assert load_dataset(directory) == dataset

    @pytest.mark.parametrize("change", [{"cited_patents": ["9;8"]}, {"cited_patents": [""]},
                                        {"variety_name": ""}],
                             ids=["semicolon", "empty-cited", "empty-variety"])
    def test_unstorable_patent_keeps_old_store(self, tmp_path, change):
        save_dataset(self._dataset(), tmp_path / "ds")
        dataset = self._dataset()
        dataset.patents["2"] = dataset.patents["2"]._replace(**change)
        with pytest.raises(DatasetError, match="^patent '2': "):
            save_dataset(dataset, tmp_path / "ds")
        assert load_dataset(tmp_path / "ds") == self._dataset()
        assert sorted(f.name for f in (tmp_path / "ds").iterdir()) == STORE_FILES

    # case: (how the dataset changes, the refusal's message)
    UNLOADABLE = {
        "unknown-patent": (lambda d: d.trial_sets.append(
            PatentTrialSet("4", [TrialComparison(70.0, 71.0, "c4")])),
            "^patent '4': a trial set for a patent not in the dataset"),
        "no-comparisons": (lambda d: d.trial_sets.append(PatentTrialSet("3", [])),
                           "^patent '3': a trial set without comparisons"),
        "two-sets": (lambda d: d.trial_sets.append(
            PatentTrialSet("1", [TrialComparison(60.0, 61.0, "c5")])),
            "^patent '1': a second trial set"),
        "key-not-number": (lambda d: d.patents.update({"7": d.patents.pop("3")}),
                           "^patent '3': held under the key '7'"),
        # Records that break a row rule, which load_dataset applies to every row.
        "empty-number": (lambda d: d.patents.update(
            {"": d.patents.pop("3")._replace(patent_number="")}),
            "^patent '': empty patent_number"),
        "year-order": (lambda d: d.patents.update({"3": d.patents["3"]._replace(filed_year=2005)}),
                       "^patent '3': year order violated"),
        "negative-citations": (lambda d: d.patents.update(
            {"3": d.patents["3"]._replace(forward_citation_count=-1)}),
            "^patent '3': negative forward citation count"),
        "nan-yield": (lambda d: d.trial_sets.append(
            PatentTrialSet("3", [TrialComparison(math.nan, 71.0, "c4")])),
            "^patent '3': non-finite value"),
        "moisture-150": (lambda d: d.field_tests.append(
            FieldTestRecord("IL", 1996, "North", "CARGILL", "4277", 150.0, 150.0)),
            "^field test 2: moisture out of range"),
    }

    @pytest.mark.parametrize("case", UNLOADABLE)
    def test_unloadable_dataset_keeps_old_store(self, tmp_path, case):
        # Each dataset would load back changed, or fail every load.
        change, message = self.UNLOADABLE[case]
        save_dataset(self._dataset(), tmp_path / "ds")
        dataset = self._dataset()
        change(dataset)
        with pytest.raises(DatasetError, match=message):
            save_dataset(dataset, tmp_path / "ds")
        assert load_dataset(tmp_path / "ds") == self._dataset()
        assert sorted(f.name for f in (tmp_path / "ds").iterdir()) == STORE_FILES

    def test_resaved_store_has_the_same_bytes(self, tmp_path, capsys):
        # The bundled fixture's store, loaded and saved again, is the same bytes;
        # so is a dataset of numpy float64 values saved as one of Python floats.
        fixture = resources.files("cornrate.data") / "synthetic"
        assert main(["ingest", *(a for name in ("patents", "trials", "fieldtests")
                                 for a in (f"--{name}", str(fixture / f"{name}.csv"))),
                     "--schema", "illinois", "--out", str(tmp_path / "ingested"),
                     "--no-timestamp"]) == 0
        capsys.readouterr()
        save_dataset(load_dataset(tmp_path / "ingested"), tmp_path / "resaved")
        dataset = synthetic_dataset()
        assert any(type(t.yield_value) is np.float64 for t in dataset.field_tests)

        def python_floats(record):
            return record._make(float(v) if isinstance(v, float) else v for v in record)

        save_dataset(dataset, tmp_path / "numpy")
        save_dataset(Dataset(dataset.patents,
                             [PatentTrialSet(ts.patent_number, list(map(python_floats,
                                                                         ts.comparisons)))
                              for ts in dataset.trial_sets],
                             list(map(python_floats, dataset.field_tests))),
                     tmp_path / "python")
        for name in ("patents.csv", "trials.csv", "fieldtests.csv"):
            assert ((tmp_path / "resaved" / name).read_bytes()
                    == (tmp_path / "ingested" / name).read_bytes()), name
            assert ((tmp_path / "numpy" / name).read_bytes()
                    == (tmp_path / "python" / name).read_bytes()), name

    def test_round_trip_empty(self, tmp_path):
        save_dataset(Dataset(), tmp_path / "ds")
        assert load_dataset(tmp_path / "ds") == Dataset()

    def test_version_guard(self, tmp_path):
        save_dataset(Dataset(), tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"schema_version": 1',
                                                         '"schema_version": 99'))
        with pytest.raises(DatasetError, match="version mismatch"):
            load_dataset(tmp_path / "ds")

    def test_corrupt_manifest(self, tmp_path):
        save_dataset(Dataset(), tmp_path / "ds")
        (tmp_path / "ds" / "manifest.json").write_text("{not json")
        with pytest.raises(DatasetError, match="corrupt manifest"):
            load_dataset(tmp_path / "ds")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="no manifest"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name", ["patents.csv", "trials.csv", "fieldtests.csv"])
    @pytest.mark.parametrize("cut", ["short", "long"])
    def test_bad_row_width(self, tmp_path, name, cut):
        # A store row cut short (as an interrupted rewrite leaves it) or one
        # with an extra field is a store error naming the file and line.
        save_dataset(self._dataset(), tmp_path / "ds")
        path = tmp_path / "ds" / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].split(",")[0] if cut == "short" else lines[1] + ",extra"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=rf"{name}, line 2: expected \d+ fields"):
            load_dataset(tmp_path / "ds")

    def test_bad_store_value(self, tmp_path):
        save_dataset(self._dataset(), tmp_path / "ds")
        path = tmp_path / "ds" / "fieldtests.csv"
        path.write_text(path.read_text(encoding="utf-8").replace(",1998,", ",19x8,"),
                        encoding="utf-8")
        with pytest.raises(DatasetError, match=r"fieldtests.csv, line 2: invalid literal"):
            load_dataset(tmp_path / "ds")

    def test_foreign_header(self, tmp_path):
        save_dataset(self._dataset(), tmp_path / "ds")
        path = tmp_path / "ds" / "trials.csv"
        path.write_text("patent_number\n1\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="not the store layout"):
            load_dataset(tmp_path / "ds")

    def test_failed_write_keeps_old_store(self, tmp_path, monkeypatch):
        # The new files are written aside, so a write that fails leaves the
        # old store loadable and no temporary directory behind.
        import cornrate.core_data as core_data
        save_dataset(self._dataset(), tmp_path / "ds")
        real_write_csv = core_data.write_csv
        written = []

        def failing_write_csv(path, header, rows):
            if written:
                raise OSError("disk full")
            written.append(path.name)
            real_write_csv(path, header, rows)

        monkeypatch.setattr(core_data, "write_csv", failing_write_csv)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(synthetic_dataset(), tmp_path / "ds")
        assert written == ["patents.csv"]
        assert load_dataset(tmp_path / "ds") == self._dataset()
        assert sorted(f.name for f in (tmp_path / "ds").iterdir()) == STORE_FILES

    def test_interrupted_rewrite_has_no_manifest(self, tmp_path, monkeypatch):
        # The old manifest goes before the first file is moved into place and
        # the new one comes last, so a rewrite that stops while moving never
        # leaves a manifest beside a mix of old and new CSVs.
        save_dataset(self._dataset(), tmp_path / "ds")
        real_replace = os.replace
        moved = []

        def failing_replace(source, target):
            if moved:
                raise OSError("interrupted")
            moved.append(Path(target).name)
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="interrupted"):
            save_dataset(synthetic_dataset(), tmp_path / "ds")
        assert moved == ["patents.csv"]
        with pytest.raises(DatasetError, match="no manifest"):
            load_dataset(tmp_path / "ds")
        assert sorted(f.name for f in (tmp_path / "ds").iterdir()) == [
            "fieldtests.csv", "patents.csv", "trials.csv"]

    def test_rewrite_replaces_only_store_files(self, tmp_path):
        directory = tmp_path / "ds"
        save_dataset(synthetic_dataset(), directory)
        (directory / "notes.txt").write_text("kept")
        save_dataset(self._dataset(), directory)
        assert load_dataset(directory) == self._dataset()
        assert sorted(f.name for f in directory.iterdir()) == sorted(STORE_FILES + ["notes.txt"])
        assert (directory / "notes.txt").read_text() == "kept"

    def test_manifest_with_old_keys_loads(self, tmp_path):
        # Stores written before citation_cutoff_year left the manifest still load.
        save_dataset(self._dataset(), tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.json"
        manifest.write_text('{"schema_version": 1, "citation_cutoff_year": 2015}')
        assert load_dataset(tmp_path / "ds") == self._dataset()


def test_moved_ingest_names_resolve_from_core_data():
    # The loaders live in cornrate.ingest, and save_dataset, defined in core_data,
    # is imported there. Code that looks them up in core_data, as the benchmark's
    # tracer does, finds the same objects; no other ingest name is forwarded.
    import cornrate.core_data as core_data
    import cornrate.ingest as ingest
    for name in ("load_patents", "load_trial_sets", "load_field_tests", "save_dataset"):
        assert getattr(core_data, name) is getattr(ingest, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        core_data.no_such_name


def test_container_defaults_are_not_shared():
    # A NamedTuple default is one object: each record that leaves out a list
    # or dict field needs its own, or a change to one would show in all.
    assert all(a is not b for a, b in zip(Dataset(), Dataset()))
    assert (PatentRecord("1", "t", "a", 1990, 1992).cited_patents
            is not PatentRecord("2", "t", "a", 1990, 1992).cited_patents)
    assert LoadReport([]).row_errors is not LoadReport([]).row_errors


@pytest.mark.parametrize("load", [load_patents, load_trial_sets,
                                  lambda path: load_field_tests(path, "illinois"), load_dataset],
                         ids=["patents", "trials", "fieldtests", "store"])
def test_loaders_pause_the_collector(tmp_path, load):
    # Each loader reads with the cyclic collector off, and turns it back on after a raise too.
    save_dataset(Dataset(), tmp_path)   # a manifest, for load_dataset
    states = []

    def unreadable(path, error):
        states.append(gc.isenabled())
        raise error(f"unreadable {path}")

    with mock.patch("cornrate.core_data._csv_reader", unreadable):
        with pytest.raises(CornrateError, match="^unreadable "):
            load(tmp_path if load is load_dataset else tmp_path / "patents.csv")
    assert states == [False]
    assert gc.isenabled()


def test_load_dataset_memory(tmp_path, capsys):
    # The traced peak of load_dataset, as a multiple of the store's CSV bytes,
    # on a 5000-patent store of the benchmark's generator: 7.9 with each store
    # file read as its rows are consumed, 9.6 with each file's text held whole.
    # tracemalloc counts Python's own allocations, so the multiple does not
    # depend on the machine.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    generate.generate_network(1, tmp_path, n_nodes=5000, slice_every=1)
    store = tmp_path / "store"
    assert main(["ingest", *(a for name in ("patents", "trials", "fieldtests")
                             for a in (f"--{name}", str(tmp_path / f"{name}.csv"))),
                 "--schema", "illinois", "--out", str(store)]) == 0
    capsys.readouterr()
    size = sum(p.stat().st_size for p in store.glob("*.csv"))
    tracemalloc.start()
    try:
        dataset = load_dataset(store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dataset.patents) > 4900   # the generator spoils about 1% of rows
    assert peak < 8.7 * size, peak / size


class TestWithoutPatents:
    def test_trial_sets_go_with_their_patents(self):
        ds = synthetic_dataset()
        tested = ds.trial_sets[0].patent_number
        kept = without_patents(ds, [tested])
        assert list(kept.patents) == [n for n in ds.patents if n != tested]
        assert kept.trial_sets == [ts for ts in ds.trial_sets if ts.patent_number != tested]

    def test_field_tests_stay(self):
        ds = synthetic_dataset()
        kept = without_patents(ds, ds.patents)
        assert (kept.patents, kept.trial_sets) == ({}, [])
        assert ds.field_tests and kept.field_tests == ds.field_tests

    def test_input_unchanged(self):
        ds = synthetic_dataset()
        before = copy.deepcopy(ds)
        without_patents(ds, list(ds.patents)[:5])
        assert ds == before

    def test_unknown_numbers_ignored(self):
        ds = synthetic_dataset()
        assert without_patents(ds, ["no-such-patent", ""]) == ds


class TestInferMissingYear:
    def test_two_year_case(self):
        assert infer_missing_year_average(150.0, [155.0], 2) == pytest.approx(145.0)

    def test_symmetric(self):
        assert infer_missing_year_average(160.0, [160.0], 2) == pytest.approx(160.0)

    def test_three_year_case(self):
        assert infer_missing_year_average(160.0, [150.0, 158.0], 3) == pytest.approx(172.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            infer_missing_year_average(150.0, [155.0, 149.0], 2)

    def test_nonpositive_warns(self):
        with pytest.warns(UserWarning):
            infer_missing_year_average(100.0, [250.0], 2)

    @given(st.integers(2, 8),
           st.lists(st.floats(min_value=1.0, max_value=300.0), min_size=1, max_size=7),
           st.floats(min_value=1.0, max_value=300.0))
    def test_reaveraging_identity(self, m, known, missing):
        known = (known * m)[:m - 1]
        summary = (sum(known) + missing) / m
        inferred = infer_missing_year_average(summary, known, m)
        assert abs((sum(known) + inferred) / m - summary) < 1e-12

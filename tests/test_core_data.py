import codecs
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cornrate.core_data import (Dataset, FieldTestSchema, IngestError, DatasetError,
                                Maturity, PatentKind, PatentRecord, PatentTrialSet,
                                TrialComparison, FieldTestRecord,
                                infer_missing_year_average, load_dataset,
                                load_field_tests, load_patents, load_trial_sets,
                                save_dataset)
from cornrate.synthetic import synthetic_dataset


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


PATENT_HEADER = "patent_number,title,assignee,filed_year,granted_year,forward_citations,cited_patents\n"


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
        with pytest.raises(IngestError, match="duplicate"):
            load_patents(p)

    def test_unparsable_year_is_row_error(self, tmp_path):
        p = write(tmp_path / "p.csv", PATENT_HEADER + "1,t,A,abc,1995,0,\n")
        report = load_patents(p)
        assert report.records == []
        assert len(report.row_errors) == 1

    def test_accounting(self, tmp_path):
        p = write(tmp_path / "p.csv", PATENT_HEADER +
                  "1,t,A,1990,1995,0,\n2,t,A,1999,1995,0,\n3,t,A,1990,1995,-1,\n4,t,A,1990,1995,2,\n")
        report = load_patents(p)
        assert report.n_input_rows == 4
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
        setattr(rec, field, math.nan)
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
_NAME = st.text(_CHAR, min_size=1, max_size=10)
# Cited patent numbers are stored joined by ";".
_NUMBER = st.text(_CHAR.filter(lambda c: c != ";"), min_size=1, max_size=8)
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
        cited_patents=draw(st.lists(_NUMBER, max_size=3)),
        forward_citation_count=draw(_or_numpy(st.integers(0, 10 ** 6), np.int64)),
        variety_name=draw(st.none() | _NAME), kind=draw(st.none() | st.sampled_from(PatentKind)))


_COMPARISON = st.builds(TrialComparison, _POSITIVE, _POSITIVE, _TEXT,
                        st.none() | _FINITE, st.none() | _FINITE)
_FIELD_TEST = st.builds(
    FieldTestRecord, _TEXT, _YEAR, _TEXT, _TEXT, _TEXT, _POSITIVE,
    _or_numpy(st.floats(0, 100), np.float64), maturity=st.none() | st.sampled_from(Maturity),
    stand=st.none() | _FINITE, significant=_or_numpy(st.booleans(), np.bool_))


@st.composite
def datasets(draw):
    """Datasets the store can hold: records that pass validate(), and trial
    sets of distinct patents in the dataset with at least one comparison."""
    numbers = draw(st.lists(_NUMBER, max_size=5, unique=True))
    patents = {n: draw(_patent(n)) for n in numbers}
    tested = draw(st.lists(st.sampled_from(numbers), unique=True)) if numbers else []
    return Dataset(
        patents=patents,
        trial_sets=[PatentTrialSet(n, draw(st.lists(_COMPARISON, min_size=1, max_size=3)))
                    for n in tested],
        field_tests=draw(st.lists(_FIELD_TEST, max_size=4)),
        citation_cutoff_year=draw(_YEAR))


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
        directory = tmp_path_factory.mktemp("ds")
        save_dataset(dataset, directory)
        assert load_dataset(directory) == dataset

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

    def test_interrupted_rewrite_has_no_manifest(self, tmp_path, monkeypatch):
        # The old manifest goes first and the new one is written last, so a
        # failed rewrite never leaves a manifest beside partial CSVs.
        import cornrate.core_data as core_data
        save_dataset(self._dataset(), tmp_path / "ds")
        real_write_csv = core_data.write_csv
        written = []

        def failing_write_csv(path, header, rows):
            if written:
                raise OSError("disk full")
            written.append(path)
            real_write_csv(path, header, rows)

        monkeypatch.setattr(core_data, "write_csv", failing_write_csv)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(synthetic_dataset(), tmp_path / "ds")
        assert written == [tmp_path / "ds" / "patents.csv"]
        with pytest.raises(DatasetError, match="no manifest"):
            load_dataset(tmp_path / "ds")


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

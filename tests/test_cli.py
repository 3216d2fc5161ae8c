import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cornrate import cli
from cornrate.citation_metrics import CitationError
from cornrate.citation_network import NetworkError
from cornrate.cli import main
from cornrate.core_data import DatasetError, IngestError, load_dataset, load_trial_sets
from cornrate.regression import RegressionError
from cornrate.trend import TrendError
from tests.synthetic import write_synthetic_csvs


@pytest.fixture(scope="module")
def raw_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("raw")
    write_synthetic_csvs(d)
    return d


@pytest.fixture(scope="module")
def dataset_dir(raw_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("dataset")
    code = main(["ingest",
                 "--patents", str(raw_dir / "patents.csv"),
                 "--trials", str(raw_dir / "trials.csv"),
                 "--fieldtests", str(raw_dir / "fieldtests.csv"),
                 "--schema", "illinois",
                 "--out", str(d)])
    assert code == 0
    return d


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def validate(payload, name):
    ref = resources.files("cornrate.data") / "schemas" / f"{name}.schema.json"
    jsonschema.validate(payload, json.loads(ref.read_text()))


class TestIngest:
    def test_report_and_schema(self, raw_dir, tmp_path, capsys):
        code, payload = run_json(capsys, [
            "ingest", "--patents", str(raw_dir / "patents.csv"),
            "--trials", str(raw_dir / "trials.csv"),
            "--out", str(tmp_path / "ds")])
        assert code == 0
        validate(payload, "ingest")
        assert payload["patents"]["records"] == 70
        # The report goes to stdout only; the store holds the dataset's files.
        assert sorted(f.name for f in (tmp_path / "ds").iterdir()) == [
            "fieldtests.csv", "manifest.json", "patents.csv", "trials.csv"]

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["ingest", "--patents", str(tmp_path / "nope.csv"),
                     "--trials", str(tmp_path / "nope2.csv"),
                     "--out", str(tmp_path / "ds")]) == 2

    def test_missing_out_exit_2(self, raw_dir):
        assert main(["ingest", "--patents", str(raw_dir / "patents.csv"),
                     "--trials", str(raw_dir / "trials.csv")]) == 2


    def test_nan_yield_is_row_error(self, raw_dir, tmp_path, capsys):
        header, first, *rest = (raw_dir / "trials.csv").read_text(encoding="utf-8").splitlines()
        fields = header.split(",")
        cells = first.split(",")
        cells[fields.index("patented_yield")] = "nan"
        trials = tmp_path / "trials.csv"
        trials.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8")
        code, payload = run_json(capsys, [
            "ingest", "--patents", str(raw_dir / "patents.csv"), "--trials", str(trials),
            "--out", str(tmp_path / "ds"), "--no-timestamp"])
        assert code == 0
        assert payload["trials"]["row_errors"] == [{"row": 0, "error": "non-finite number 'nan'"}]
        assert main(["regress", "--dataset", str(tmp_path / "ds"), "--no-timestamp"]) == 0


class TestTrend:
    def test_usda_bundled_series(self, capsys):
        code, payload = run_json(capsys, ["trend", "--series", "usda-file",
                                          "--no-timestamp"])
        assert code == 0
        validate(payload, "trend")
        assert 0.020 <= payload["rate_k"] <= 0.028
        assert payload["r_squared"] >= 0.90

    def test_year_restriction(self, capsys):
        code, payload = run_json(capsys, ["trend", "--series", "usda-file",
                                          "--from", "1950", "--to", "2000",
                                          "--no-timestamp"])
        assert code == 0
        assert payload["t0"] == 1950
        assert payload["n"] == 51

    def test_patent_yearly_max(self, dataset_dir, capsys):
        code, payload = run_json(capsys, [
            "trend", "--series", "patent-yearly-max",
            "--dataset", str(dataset_dir), "--no-timestamp"])
        assert code == 0
        assert payload["rate_k"] > 0

    def test_weather_corrected(self, dataset_dir, capsys):
        code, payload = run_json(capsys, [
            "trend", "--series", "weather-corrected",
            "--dataset", str(dataset_dir),
            "--region", "North", "--control", "CTRL1", "--no-timestamp"])
        assert code == 0
        # The fixture's per-year weather factors cancel; the residual
        # best-vs-control slope is small either way.
        assert abs(payload["rate_k"]) < 0.05
        assert payload["n"] >= 2

    def test_weather_needs_region_and_control(self, dataset_dir):
        assert main(["trend", "--series", "weather-corrected",
                     "--dataset", str(dataset_dir)]) == 2

    def test_weather_default_control(self, dataset_dir, capsys):
        base = ["trend", "--series", "weather-corrected", "--dataset", str(dataset_dir),
                "--region", "North", "--no-timestamp"]
        code, chosen = run_json(capsys, base)
        assert code == 0
        validate(chosen, "trend")
        _, given_control = run_json(capsys, base + ["--control", "CTRL1"])
        assert "control" not in given_control
        assert chosen == {**given_control, "control": "CTRL1"}

    def test_weather_no_control_run_exit_3(self, raw_dir, tmp_path, capsys):
        # East's only variety is tested in 6 consecutive years, one short of the default.
        rows = [f"{year},East,B,SHORT,150.0,18.0" for year in (*range(2000, 2006), 2007)]
        fieldtests = tmp_path / "fieldtests.csv"
        fieldtests.write_text("Year,Region,Brand,Hybrid,Yield,Moisture\n"
                              + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(["ingest", "--patents", str(raw_dir / "patents.csv"),
                     "--trials", str(raw_dir / "trials.csv"), "--fieldtests", str(fieldtests),
                     "--schema", "illinois", "--out", str(tmp_path / "ds")]) == 0
        capsys.readouterr()
        assert main(["trend", "--series", "weather-corrected", "--dataset",
                     str(tmp_path / "ds"), "--region", "East"]) == 3
        assert "'East'" in json.loads(capsys.readouterr().err)["error"]

    def test_missing_control_exit_3(self, dataset_dir):
        assert main(["trend", "--series", "weather-corrected",
                     "--dataset", str(dataset_dir),
                     "--region", "North", "--control", "NOPE"]) == 3

    def test_over_restriction_exit_3(self):
        assert main(["trend", "--series", "usda-file",
                     "--from", "2014", "--to", "2014"]) == 3

    def test_missing_input_exit_2(self, tmp_path, capsys):
        # A missing series file is an input error; only a bad series row is a data error.
        series = tmp_path / "missing.csv"
        assert main(["trend", "--series", "usda-file", "--input", str(series)]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": f"missing file: {series}",
                                                       "exit_code": 2}

    def test_nan_input_exit_3(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("year,value\n2000,1.5\n2001,nan\n2002,1.7\n", encoding="utf-8")
        assert main(["trend", "--series", "usda-file", "--input", str(series)]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("header, code", [("\ufeffyear,value", 0), ("year,val", 2)],
                             ids=["bom", "misnamed"])
    def test_input_header(self, tmp_path, capsys, header, code):
        series = tmp_path / "series.csv"
        series.write_text(f"{header}\n2000,1.5\n2001,1.6\n2002,1.7\n", encoding="utf-8")
        assert main(["trend", "--series", "usda-file", "--input", str(series),
                     "--no-timestamp"]) == code
        if code:
            assert "missing required column" in json.loads(capsys.readouterr().err)["error"]

    def test_missing_dataset_exit_2(self, tmp_path):
        assert main(["trend", "--series", "patent-yearly-max",
                     "--dataset", str(tmp_path / "nope")]) == 2

    def test_series_csv_written(self, tmp_path, capsys):
        code, _ = run_json(capsys, ["trend", "--series", "usda-file",
                                    "--out", str(tmp_path), "--no-timestamp"])
        assert code == 0
        assert (tmp_path / "series_usda-file.csv").is_file()
        assert (tmp_path / "trend.json").is_file()


class TestPredict:
    def test_k1(self, dataset_dir, capsys):
        code, payload = run_json(capsys, [
            "predict", "k1", "--dataset", str(dataset_dir), "--no-timestamp"])
        assert code == 0
        validate(payload, "predict_k1")
        assert payload["spc"] == 70
        # K1 is affine in its inputs; re-derive from the reported ones.
        from cornrate.citation_metrics import predict_k1
        assert payload["k1"] == pytest.approx(
            predict_k1(payload["ave_pub_year"], payload["cite3"]), abs=1e-12)

    def test_k2(self, dataset_dir, raw_dir, capsys):
        code, payload = run_json(capsys, [
            "predict", "k2", "--dataset", str(dataset_dir),
            "--nodes", str(raw_dir / "nodes.csv"),
            "--edges", str(raw_dir / "edges.csv"), "--no-timestamp"])
        assert code == 0
        validate(payload, "predict_k2")
        assert 0.0 <= payload["centrality"] <= 1.0
        from cornrate.citation_network import predict_k2
        assert payload["k2"] == pytest.approx(
            predict_k2(payload["centrality"], payload["z"]), abs=1e-12)

    def test_k2_config_threshold(self, dataset_dir, raw_dir, tmp_path, capsys):
        argv = ["predict", "k2", "--dataset", str(dataset_dir),
                "--nodes", str(raw_dir / "nodes.csv"), "--edges", str(raw_dir / "edges.csv"),
                "--no-timestamp"]
        _, default = run_json(capsys, argv)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"highly_cited_threshold": 0.25}))
        code, lowered = run_json(capsys, [*argv, "--config", str(config)])
        assert code == 0
        assert lowered["highly_cited_threshold"] == 0.25
        assert lowered["n_highly_cited"] > default["n_highly_cited"]
        assert lowered["centrality"] == default["centrality"]

    @pytest.mark.parametrize("name, header, code", [
        ("nodes", "\ufeffpatent_number,application_year", 0),
        ("nodes", "patent_no,application_year", 2),
        ("edges", "\ufeffciting_patent,cited_patent", 0),
        ("edges", "citing_patent,cited", 2),
    ], ids=["nodes-bom", "nodes-misnamed", "edges-bom", "edges-misnamed"])
    def test_k2_network_headers(self, dataset_dir, raw_dir, tmp_path, capsys,
                                name, header, code):
        files = {n: raw_dir / f"{n}.csv" for n in ("nodes", "edges")}
        rows = files[name].read_text(encoding="utf-8").splitlines()[1:]
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        assert main(["predict", "k2", "--dataset", str(dataset_dir),
                     "--nodes", str(files["nodes"]), "--edges", str(files["edges"]),
                     "--no-timestamp"]) == code
        if code:
            assert "missing required column" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("name, row, problem", [
        ("nodes", "9999999", "expected 2 fields, found 1"),
        ("nodes", "9999999,2001,x", "expected 2 fields, found 3"),
        ("nodes", "9999999,20x1", "invalid literal for int()"),
        ("nodes", "9999999,99999999999999999999", "outside int64"),
        ("edges", "9999999", "expected 2 fields, found 1"),
        ("edges", "9999999,9999998,x", "expected 2 fields, found 3"),
    ], ids=["nodes-short", "nodes-long", "nodes-bad-year", "nodes-year-past-int64",
            "edges-short", "edges-long"])
    def test_k2_bad_network_row_exit_2(self, dataset_dir, raw_dir, tmp_path, capsys,
                                       name, row, problem):
        files = {n: raw_dir / f"{n}.csv" for n in ("nodes", "edges")}
        lines = files[name].read_text(encoding="utf-8").splitlines()
        files[name] = tmp_path / f"{name}.csv"
        # A blank line before the bad row: the reported line counts it too.
        files[name].write_text("\n".join([*lines[:3], "", row, *lines[3:]]) + "\n",
                               encoding="utf-8")
        assert main(["predict", "k2", "--dataset", str(dataset_dir),
                     "--nodes", str(files["nodes"]), "--edges", str(files["edges"]),
                     "--no-timestamp"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith(f"{files[name]}, line 5: ")
        assert problem in error

    @pytest.mark.parametrize("name", ["nodes", "edges"])
    def test_k2_missing_network_file_exit_2(self, dataset_dir, raw_dir, tmp_path, capsys,
                                            name):
        files = {n: raw_dir / f"{n}.csv" for n in ("nodes", "edges")}
        files[name] = tmp_path / "missing.csv"
        assert main(["predict", "k2", "--dataset", str(dataset_dir),
                     "--nodes", str(files["nodes"]), "--edges", str(files["edges"])]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"missing file: {files[name]}", "exit_code": 2}

    def test_k2_requires_network_files(self, dataset_dir):
        assert main(["predict", "k2", "--dataset", str(dataset_dir)]) == 2

    def test_exclusion_file(self, dataset_dir, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"exclusion_list": ["5000000"]}))
        code, payload = run_json(capsys, [
            "predict", "k1", "--dataset", str(dataset_dir),
            "--config", str(config), "--no-timestamp"])
        assert code == 0
        assert payload["spc"] == 69

    def test_empty_exclusion_list_excludes_nothing(self, raw_dir, tmp_path, capsys):
        # A store holding one of the four default exclusions: predict drops it
        # by default, and an explicit empty list keeps it.
        patents = tmp_path / "patents.csv"
        patents.write_text((raw_dir / "patents.csv").read_text(encoding="utf-8")
                           + "4629819,Inbred corn line SYN9999,PIONEER,1985,1987,40,\n",
                           encoding="utf-8")
        store = tmp_path / "ds"
        assert main(["ingest", "--patents", str(patents), "--trials", str(raw_dir / "trials.csv"),
                     "--out", str(store)]) == 0
        capsys.readouterr()
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"exclusion_list": []}))
        argv = ["predict", "k1", "--dataset", str(store), "--no-timestamp"]
        assert run_json(capsys, argv)[1]["spc"] == 70
        assert run_json(capsys, [*argv, "--config", str(config)])[1]["spc"] == 71

    def test_all_patents_excluded_exit_3(self, dataset_dir, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"exclusion_list": sorted(load_dataset(dataset_dir).patents)}))
        assert main(["predict", "k1", "--dataset", str(dataset_dir),
                     "--config", str(config)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "the exclusion list excludes every patent of the domain", "exit_code": 3}

    def test_kind_filter(self, dataset_dir, capsys):
        code, hybrid = run_json(capsys, [
            "predict", "k1", "--dataset", str(dataset_dir),
            "--kind", "hybrid", "--no-timestamp"])
        assert code == 0
        code, both = run_json(capsys, [
            "predict", "k1", "--dataset", str(dataset_dir),
            "--kind", "both", "--no-timestamp"])
        assert code == 0
        assert hybrid["spc"] < both["spc"]

    def test_filed_until_empty_exit_3(self, dataset_dir, capsys):
        assert main(["predict", "k1", "--dataset", str(dataset_dir),
                     "--filed-until", "1900"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == \
            "no patents match the kind/filed-until selection"


class TestRegress:
    def test_all_models_all_families(self, dataset_dir, capsys):
        code, payload = run_json(capsys, [
            "regress", "--dataset", str(dataset_dir),
            "--models", "1,2,3,4", "--family", "ols,poisson,negbin",
            "--no-timestamp"])
        assert code == 0
        validate(payload, "regress")
        assert len(payload["fits"]) == 12
        assert "performance_ratio" in payload["coefficient_table"]

    def test_unknown_model_exit_2(self, dataset_dir):
        assert main(["regress", "--dataset", str(dataset_dir),
                     "--models", "9"]) == 2

    @pytest.mark.parametrize("models, entry", [("x", "x"), ("1,", ""), ("1,2.0", "2.0")],
                             ids=["word", "trailing-comma", "float"])
    def test_non_integer_model_exit_2(self, dataset_dir, capsys, models, entry):
        assert main(["regress", "--dataset", str(dataset_dir), "--models", models]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith(f"unknown model id {entry!r}")

    def test_bad_family_exit_3(self, dataset_dir):
        # ValueError from the Family enum maps to the data error code.
        assert main(["regress", "--dataset", str(dataset_dir),
                     "--family", "gamma"]) == 3

    def test_singular_fit_exit_4(self, dataset_dir, monkeypatch, capsys):
        # numpy's LinAlgError is a ValueError; it must still be a numeric failure.
        import numpy as np
        from cornrate import regression

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(regression, "fit_ols", singular)
        assert main(["regress", "--dataset", str(dataset_dir), "--models", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "model 1 (ols): Singular matrix",
                                            "exit_code": 4}

    def test_config_exclusions(self, dataset_dir, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"exclusion_list": ["5000000"]}))
        code, payload = run_json(capsys, [
            "regress", "--dataset", str(dataset_dir), "--models", "4",
            "--config", str(config), "--no-timestamp"])
        assert code == 0
        assert payload["n_excluded"] == 1

    def test_exclusion_file_bom(self, dataset_dir, tmp_path, capsys):
        # A config file with a byte-order mark is read as one without.
        config = tmp_path / "run.json"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"exclusion_list": ["5000000"]}).encode())
        code, payload = run_json(capsys, [
            "regress", "--dataset", str(dataset_dir), "--models", "4",
            "--config", str(config), "--no-timestamp"])
        assert code == 0
        assert (payload["n_rows"], payload["n_excluded"]) == (69, 1)


@pytest.fixture(scope="module")
def store_without_5026664(raw_dir, tmp_path_factory):
    """The fixture store as if patent 5026664 and its trial rows had never been ingested."""
    d = tmp_path_factory.mktemp("without_5026664")
    for name in ("patents", "trials"):
        lines = (raw_dir / f"{name}.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        (d / f"{name}.csv").write_text(
            "".join(line for line in lines if not line.startswith("5026664,")), encoding="utf-8")
    assert main(["ingest", "--patents", str(d / "patents.csv"), "--trials", str(d / "trials.csv"),
                 "--fieldtests", str(raw_dir / "fieldtests.csv"), "--schema", "illinois",
                 "--out", str(d / "ds")]) == 0
    return d / "ds"


@pytest.mark.parametrize("command", [
    ["predict", "k1"],
    ["predict", "k2", "--nodes", "{raw}/nodes.csv", "--edges", "{raw}/edges.csv"],
    ["regress", "--family", "ols,poisson,negbin"],
], ids=["k1", "k2", "regress"])
def test_excluded_patent_is_as_if_never_ingested(dataset_dir, store_without_5026664, raw_dir,
                                                 tmp_path, capsys, command):
    # 5026664 is cited by other fixture patents and is a node of the network.
    command = [arg.format(raw=raw_dir) for arg in command]
    reports = []
    for store, config in ((dataset_dir, {"exclusion_list": ["5026664"]}),
                          (store_without_5026664, {})):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**config, "highly_cited_threshold": 0.5}))
        code, payload = run_json(capsys, [*command, "--dataset", str(store),
                                          "--config", str(path), "--no-timestamp"])
        assert code == 0
        reports.append(payload)
    excluded, never_ingested = reports
    if command[0] == "regress":
        assert (excluded.pop("n_excluded"), never_ingested.pop("n_excluded")) == (1, 0)
    assert excluded == never_ingested


@pytest.mark.parametrize("error, code", [
    (IngestError("bad input"), 2),
    (DatasetError("bad store"), 2),
    (FileNotFoundError("no such file"), 2),
    (FileExistsError("a file is in the way"), 2),
    (PermissionError("not writable"), 2),
    (TrendError("bad series"), 3),
    (NetworkError("bad network"), 3),
    (CitationError("bad citation"), 3),
    (ValueError("bad value"), 3),
    (RegressionError("bad design"), 4),
    (ArithmeticError("overflow"), 4),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_exception_class_sets_the_exit_code(dataset_dir, monkeypatch, capsys, error, code):
    def fail(dataset):
        raise error

    monkeypatch.setattr(cli, "describe_dataset", fail)
    assert main(["report", "--dataset", str(dataset_dir)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": str(error), "exit_code": code}


@pytest.mark.parametrize("command", [
    ["ingest", "--patents", "{raw}/patents.csv", "--trials", "{raw}/trials.csv"],
    ["report", "--dataset", "{store}"],
    ["predict", "k1", "--dataset", "{store}"],
], ids=["ingest", "report", "predict_k1"])
def test_out_naming_a_file_exit_2(raw_dir, dataset_dir, tmp_path, capsys, command):
    # An --out that cannot be a directory is an input error, met before any report is printed.
    blocker = tmp_path / "a-file"
    blocker.write_text("kept")
    argv = [arg.format(raw=raw_dir, store=dataset_dir) for arg in command]
    assert main([*argv, "--out", str(blocker), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["exit_code"] == 2 and str(blocker) in error["error"]
    assert blocker.read_text() == "kept"


class TestStoreValidation:
    @pytest.mark.parametrize("manifest", [
        b"[]",
        b'{"schema_version": 1, "citation_cutoff_year": 2015, "note": "\xff"}',
    ], ids=["not-an-object", "not-utf-8"])
    def test_malformed_manifest_exit_2(self, dataset_dir, tmp_path, capsys, manifest):
        store = tmp_path / "ds"
        store.mkdir()
        for f in dataset_dir.iterdir():
            (store / f.name).write_bytes(f.read_bytes())
        (store / "manifest.json").write_bytes(manifest)
        assert main(["report", "--dataset", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(store / "manifest.json") in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("name, row, message", [
        ("patents.csv", 1, "duplicate patent_number"),
        ("trials.csv", "9999999,c9,100.0,99.0,,", "trial set for unknown patent 9999999"),
        ("patents.csv", ",T,A,1990,1992,0,,,", "empty patent_number"),
        ("patents.csv", "9999999,T,A,1993,1992,0,,,", "year order violated"),
        ("patents.csv", "9999999,T,A,1990,1992,-1,,,", "negative forward citation count"),
        ("patents.csv", "9999999,T,A,1990,1992,0,,,weird", "'weird' is not a valid PatentKind"),
        ("trials.csv", "5000000,c9,0,99.0,,", "nonpositive yield"),
        ("trials.csv", "5000000,c9,100.0,99.0,inf,", "non-finite value"),
        ("fieldtests.csv", ",1995,North,B,H,120.0,101,,,0", "moisture out of range"),
        ("fieldtests.csv", ",1995,North,B,H,120.0,15,weird,,0",
         "'weird' is not a valid Maturity"),
        ("fieldtests.csv", ",1995,North,B,H,120.0,15,,inf,0", "non-finite value"),
    ], ids=["duplicate-patent", "unknown-trial-patent", "empty-patent-number",
            "filed-after-granted", "negative-forward-citations", "unknown-kind",
            "nonpositive-trial-yield", "inf-trial-moisture", "moisture-101",
            "unknown-maturity", "inf-stand"])
    def test_inconsistent_store_row_exit_2(self, dataset_dir, tmp_path, capsys, name, row,
                                           message):
        # A row is appended; an int names the existing row to repeat.
        store = tmp_path / "ds"
        store.mkdir()
        for f in dataset_dir.iterdir():
            (store / f.name).write_bytes(f.read_bytes())
        path = store / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.append(lines[row] if isinstance(row, int) else row)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["report", "--dataset", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error.startswith(f"{path}, line {len(lines)}: {message}")

    @pytest.mark.parametrize("name, column", [("trials.csv", "patented_yield"),
                                              ("fieldtests.csv", "yield")],
                             ids=["trials", "fieldtests"])
    @pytest.mark.parametrize("argv", [["regress"], ["trend", "--series", "patent-yearly-max"]],
                             ids=["regress", "trend-patent-yearly-max"])
    def test_nan_store_value_exit_2(self, dataset_dir, tmp_path, capsys, name, column, argv):
        # The store's records are validated on load, so a NaN written into a
        # store file is a store error naming the file and line.
        store = tmp_path / "ds"
        store.mkdir()
        for f in dataset_dir.iterdir():
            (store / f.name).write_bytes(f.read_bytes())
        path = store / name
        with path.open(newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        rows[1][rows[0].index(column)] = "nan"
        with path.open("w", newline="", encoding="utf-8") as f:
            csv.writer(f).writerows(rows)
        assert main([*argv, "--dataset", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": f"{path}, line 2: non-finite value",
                                            "exit_code": 2}


class TestReport:
    def test_truncated_store_row_exit_2(self, dataset_dir, tmp_path, capsys):
        store = tmp_path / "ds"
        store.mkdir()
        for f in dataset_dir.iterdir():
            (store / f.name).write_bytes(f.read_bytes())
        path = store / "patents.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3].split(",")[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["report", "--dataset", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": f"{path}, line 4: expected 9 fields, found 1", "exit_code": 2}

    def test_report(self, dataset_dir, tmp_path, capsys):
        code, payload = run_json(capsys, [
            "report", "--dataset", str(dataset_dir),
            "--out", str(tmp_path), "--no-timestamp"])
        assert code == 0
        validate(payload, "report")
        assert payload["n_patents"] == 70
        for name in ("patents_per_year.csv", "assignee_shares.csv",
                     "backward_citations.csv"):
            assert (tmp_path / name).is_file()
        shares = [row["share"] for row in payload["assignee_shares"]]
        assert sum(shares) == pytest.approx(1.0)


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["trend", "--series", "usda-file", "--no-timestamp"],
        ["report", "--no-timestamp"],       # dataset appended in test
    ])
    def test_byte_identical_reruns(self, dataset_dir, capsys, argv):
        if argv[0] != "trend":
            argv = argv + ["--dataset", str(dataset_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_regress_byte_identical(self, dataset_dir, capsys):
        argv = ["regress", "--dataset", str(dataset_dir),
                "--family", "ols,poisson,negbin", "--no-timestamp"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_timestamp_present_by_default(self, capsys):
        assert main(["trend", "--series", "usda-file"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "created_utc" in payload

    def test_nan_in_report_is_an_error(self, monkeypatch, capsys):
        # Strict JSON: a NaN that reaches a report fails the command, never prints.
        from cornrate import cli
        monkeypatch.setattr(cli.constants, "provenance", lambda: {"bad": math.nan})
        assert main(["trend", "--series", "usda-file", "--no-timestamp"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "JSON compliant" in json.loads(captured.err)["error"]

    def test_constants_echoed(self, capsys):
        assert main(["trend", "--series", "usda-file", "--no-timestamp"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "constants" in payload
        assert "k1" in payload["constants"]


class TestExit:
    # Registered before cornrate.cli is imported, so it runs after cli's handler.
    PROBE = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
             "from cornrate.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")

    def run(self, argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", self.PROBE, *argv], env=env,
                              capture_output=True, timeout=120)

    def test_heap_frozen_at_exit_with_exit_code_and_stdout_kept(self, dataset_dir):
        golden = Path(__file__).resolve().parent / "golden" / "trend_usda-file.json"
        done = self.run(["trend", "--series", "usda-file", "--no-timestamp"])
        assert (done.returncode, done.stdout, done.stderr) == (0, golden.read_bytes(), b"True\n")
        done = self.run(["predict", "k1", "--dataset", str(dataset_dir),
                         "--filed-until", "1900", "--no-timestamp"])
        error, probe = done.stderr.decode().splitlines()
        assert (done.returncode, done.stdout, probe) == (3, b"", "True")
        assert json.loads(error)["exit_code"] == 3

    @pytest.mark.parametrize("collecting", [True, False])
    def test_main_in_process_neither_freezes_nor_moves_the_collector(self, collecting,
                                                                     capsys):
        was_enabled = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            assert main(["trend", "--series", "usda-file", "--no-timestamp"]) == 0
            assert (gc.get_freeze_count(), gc.isenabled()) == (0, collecting)
        finally:
            (gc.enable if was_enabled else gc.disable)()


class TestMalformedConfig:
    @pytest.mark.parametrize("text", ["{not json", "[1]", '{"exclusion_list": "4629819"}',
                                      '{"exclusion_list": [4629819]}',
                                      '{"highly_cited_threshold": [0.9]}',
                                      '{"highly_cited_threshold": null}',
                                      '{"highly_cited_threshold": "high"}',
                                      '{"highly_cited_threshold": 1.5}',
                                      '{"highly_cited_threshold": true}'],
                             ids=["invalid-json", "top-level-list", "exclusions-string",
                                  "exclusions-ints", "threshold-list", "threshold-null",
                                  "threshold-string", "threshold-out-of-range",
                                  "threshold-bool"])
    @pytest.mark.parametrize("command", [["regress", "--models", "4"], ["predict", "k1"]],
                             ids=["regress", "predict-k1"])
    def test_input_error_naming_the_file(self, dataset_dir, tmp_path, capsys, text, command):
        config = tmp_path / "run.json"
        config.write_text(text)
        code = main([*command, "--dataset", str(dataset_dir), "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert str(config) in json.loads(captured.err)["error"]


@pytest.mark.parametrize("argv", [
    ["ingest", "--patents", "p.csv", "--trials", "t.csv", "--out", "ds", "--config", "c.json"],
    ["ingest", "--patents", "p.csv", "--trials", "t.csv", "--out", "ds", "--dataset", "ds"],
    ["trend", "--series", "usda-file", "--config", "c.json"],
    ["report", "--dataset", "ds", "--config", "c.json"],
    ["predict", "k1", "--dataset", "ds", "--exclude-file", "x.txt"],
    ["regress", "--dataset", "ds", "--exclude-file", "x.txt"],
    ["predict", "k2", "--dataset", "ds", "--centrality-only"],
], ids=["ingest-config", "ingest-dataset", "trend-config", "report-config",
        "predict-exclude-file", "regress-exclude-file", "k2-centrality-only"])
def test_option_a_command_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def bundled(name):
    ref = resources.files("cornrate.data") / name
    with resources.as_file(ref) as path:
        return Path(path).read_bytes()


# A line past the first 8 KiB of the fixture's trials.csv, raw and in the store:
# a reader that decodes a file in blocks meets its bad byte in a later block.
LATE_LINE = 300


def spoil_line(data: bytes, bom: bool, line: int) -> bytes:
    """data with a byte that is not UTF-8 at the start of the numbered line."""
    lines = data.split(b"\n")
    assert line == 3 or len(b"\n".join(lines[:line - 1])) > 8192
    lines[line - 1] = b"\xff" + lines[line - 1]
    return (b"\xef\xbb\xbf" if bom else b"") + b"\n".join(lines)


class TestCsvInputRules:
    """Every CSV input goes through one decode step and one set of header rules."""

    # Each CSV input flag, and the command that reads it.
    COMMANDS = {"--patents": "ingest", "--trials": "ingest", "--fieldtests": "ingest",
                "--input": "trend", "--nodes": "k2", "--edges": "k2",
                "--prefix-table": "ingest"}

    @pytest.mark.parametrize("flag, line", [*((flag, 3) for flag in COMMANDS),
                                            ("--trials", LATE_LINE)],
                             ids=[*COMMANDS, f"--trials-line-{LATE_LINE}"])
    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
    def test_non_utf8_input_names_file_and_line(self, raw_dir, dataset_dir, tmp_path, capsys,
                                                flag, line, bom):
        inputs = {f"--{name}": (raw_dir / f"{name}.csv").read_bytes()
                  for name in ("patents", "trials", "fieldtests", "nodes", "edges")}
        inputs.update({"--input": bundled("usda_us_corn_yield.csv"),
                       "--prefix-table": bundled("title_prefixes.csv")})
        inputs[flag] = spoil_line(inputs[flag], bom, line)
        paths = {f: tmp_path / f"{f[2:]}.csv" for f in inputs}
        for f, data in inputs.items():
            paths[f].write_bytes(data)
        argv = {
            "ingest": ["ingest", "--out", str(tmp_path / "ds"), "--schema", "illinois",
                       *(str(a) for f, command in self.COMMANDS.items() if command == "ingest"
                         for a in (f, paths[f]))],
            "trend": ["trend", "--series", "usda-file", "--input", str(paths["--input"])],
            "k2": ["predict", "k2", "--dataset", str(dataset_dir),
                   "--nodes", str(paths["--nodes"]), "--edges", str(paths["--edges"])],
        }[self.COMMANDS[flag]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith(f"{paths[flag]}, line {line}: ")

    @pytest.mark.parametrize("name, line", [("patents.csv", 3), ("trials.csv", 3),
                                            ("fieldtests.csv", 3), ("trials.csv", LATE_LINE)],
                             ids=["patents.csv", "trials.csv", "fieldtests.csv",
                                  f"trials.csv-line-{LATE_LINE}"])
    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
    def test_non_utf8_store_file(self, dataset_dir, tmp_path, capsys, name, line, bom):
        store = tmp_path / "ds"
        store.mkdir()
        for f in dataset_dir.iterdir():
            (store / f.name).write_bytes(f.read_bytes())
        path = store / name
        path.write_bytes(spoil_line(path.read_bytes(), bom, line))
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(path))}, line {line}: "):
            load_dataset(store)
        assert main(["report", "--dataset", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith(f"{path}, line {line}: ")

    @pytest.mark.parametrize("spelling", ["bom", "capitalised"])
    def test_prefix_table_header_spellings(self, raw_dir, tmp_path, capsys, spelling):
        table = bundled("title_prefixes.csv")
        header, rest = table.split(b"\n", 1)
        assert header.startswith(b"pattern,position")
        if spelling == "bom":
            table = b"\xef\xbb\xbf" + table
        else:
            table = header.replace(b"pattern,position", b"Pattern,Position") + b"\n" + rest
        path = tmp_path / "prefixes.csv"
        path.write_bytes(table)
        argv = ["ingest", "--patents", str(raw_dir / "patents.csv"),
                "--trials", str(raw_dir / "trials.csv"), "--out", str(tmp_path / "ds"),
                "--no-timestamp"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert main([*argv, "--prefix-table", str(path)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: ["patterns,position,note", *lines[1:]], "missing required column"),
        (lambda lines: [lines[0], lines[1].replace(",prefix,", ",sideways,"), *lines[2:]],
         "line 2: "),
        (lambda lines: lines[:1], "no pattern rows"),
        (lambda lines: [lines[0], ",prefix,", *lines[1:]], "line 2: empty pattern"),
    ], ids=["no-pattern-column", "bad-position", "header-only", "empty-pattern"])
    def test_bad_prefix_table_exit_2(self, raw_dir, tmp_path, capsys, edit, message):
        lines = bundled("title_prefixes.csv").decode("utf-8").split("\n")
        path = tmp_path / "prefixes.csv"
        path.write_text("\n".join(edit(lines)), encoding="utf-8")
        assert main(["ingest", "--patents", str(raw_dir / "patents.csv"),
                     "--trials", str(raw_dir / "trials.csv"), "--out", str(tmp_path / "ds"),
                     "--prefix-table", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert str(path) in error and message in error

    @pytest.mark.parametrize("argv", [["ingest", "--patents", "{csv}", "--trials", "{csv}"],
                                      ["trend", "--series", "usda-file", "--input", "{csv}"]],
                             ids=["ingest", "read_table"])
    def test_unsplittable_csv_names_file_and_line(self, raw_dir, tmp_path, capsys, argv):
        # An unclosed quote runs past the csv module's field size limit.
        header = (raw_dir / "patents.csv").read_text(encoding="utf-8").split("\n")[0]
        path = tmp_path / "in.csv"
        path.write_text(f'{header},year,value\n1,"' + "x" * 200_000 + "\n", encoding="utf-8")
        argv = [a.replace("{csv}", str(path)) for a in argv] + ["--out", str(tmp_path / "ds")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error.startswith(f"{path}, line ") and "field limit" in error


# --- row-accounting fuzz -----------------------------------------------------

FUZZ_INPUTS = ("patents", "trials", "fieldtests", "nodes", "edges")
ODD_CELLS = ("nan", "-inf", "inf", "NaN", "1e309", "-1e309", "1e308", "9" * 40, "")
QUERIES = (["trend", "--series", "patent-yearly-max"],
           ["trend", "--series", "state-average"],
           ["trend", "--series", "weather-corrected", "--region", "North"],
           ["predict", "k1"],
           ["predict", "k2", "--nodes", "{nodes}", "--edges", "{edges}"],
           ["regress", "--family", "ols,poisson,negbin"],
           ["report"])


def mutate(draw, blob: bytes) -> bytes:
    """blob with one byte flipped, or one row cut, duplicated, swapped or respelled."""
    kind = draw(st.sampled_from(["flip", "cut", "duplicate", "swap_rows", "swap_fields",
                                 "odd_cell"]))
    if kind == "flip":
        at = draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1:]
    lines = blob.split(b"\n")
    i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    if kind == "cut":
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "swap_rows":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        fields = lines[i].split(b",")
        a, b = (draw(st.integers(0, len(fields) - 1)) for _ in range(2))
        if kind == "swap_fields":
            fields[a], fields[b] = fields[b], fields[a]
        else:
            fields[a] = draw(st.sampled_from(ODD_CELLS)).encode()
        lines[i] = b",".join(fields)
    return b"\n".join(lines)


def data_rows(blob: bytes) -> int:
    """Non-blank CSV rows after the header, split as the loaders split them."""
    rows = csv.reader(io.StringIO(blob.decode("utf-8-sig"), newline=""))
    return sum(1 for row in list(rows)[1:] if row)


def run_quiet(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def strict_json(text: str) -> dict:
    def reject(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_inputs_are_accounted_for(raw_dir, data):
    """Every row of a mutated fixture ends up as a record, a row error or a skip,
    and every command exits 0, 2, 3 or 4 with strict JSON or nothing on stdout."""
    inputs = {name: (raw_dir / f"{name}.csv").read_bytes() for name in FUZZ_INPUTS}
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(FUZZ_INPUTS))
        inputs[name] = mutate(data.draw, inputs[name])
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp, f"{name}.csv")) for name in inputs}
        for name, blob in inputs.items():
            Path(paths[name]).write_bytes(blob)
        store = str(Path(tmp, "ds"))
        ingest = ["ingest", "--schema", "illinois", "--out", store, "--no-timestamp"]
        for name in ("patents", "trials", "fieldtests"):
            ingest += [f"--{name}", paths[name]]
        code, out = run_quiet(ingest)
        assert code in (0, 2, 3, 4)
        if code == 0:
            report = strict_json(out)
            for name in ("patents", "fieldtests"):
                counts = report[name]
                assert (counts["records"] + len(counts["row_errors"]) + counts["skipped"]
                        == data_rows(inputs[name])), name
            # Trial records are per-patent groups, so count their comparisons instead.
            trials = load_trial_sets(paths["trials"])
            assert (sum(len(ts.comparisons) for ts in trials.records) + trials.skipped
                    + sum(1 for row, _ in trials.row_errors if row >= 0)
                    == data_rows(inputs["trials"]))
        else:
            assert out == ""
        for query in QUERIES:
            argv = [a.format(**paths) for a in query]
            code, out = run_quiet([*argv, "--dataset", store, "--no-timestamp"])
            assert code in (0, 2, 3, 4), argv
            if code == 0:
                strict_json(out)
            else:
                assert out == "", argv

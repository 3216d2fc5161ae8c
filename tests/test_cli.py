import csv
import json
import math
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from cornrate.cli import main
from cornrate.synthetic import write_synthetic_csvs


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
        assert (tmp_path / "ds" / "manifest.json").is_file()

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

    def test_missing_control_exit_3(self, dataset_dir):
        assert main(["trend", "--series", "weather-corrected",
                     "--dataset", str(dataset_dir),
                     "--region", "North", "--control", "NOPE"]) == 3

    def test_over_restriction_exit_3(self):
        assert main(["trend", "--series", "usda-file",
                     "--from", "2014", "--to", "2014"]) == 3

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

    def test_k2_centrality_only(self, dataset_dir, raw_dir, capsys):
        code, payload = run_json(capsys, [
            "predict", "k2", "--dataset", str(dataset_dir),
            "--nodes", str(raw_dir / "nodes.csv"),
            "--edges", str(raw_dir / "edges.csv"),
            "--centrality-only", "--no-timestamp"])
        assert code == 0
        assert "k2" not in payload

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
        ("edges", "9999999", "expected 2 fields, found 1"),
        ("edges", "9999999,9999998,x", "expected 2 fields, found 3"),
    ], ids=["nodes-short", "nodes-long", "nodes-bad-year", "edges-short", "edges-long"])
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

    def test_k2_requires_network_files(self, dataset_dir):
        assert main(["predict", "k2", "--dataset", str(dataset_dir)]) == 2

    def test_exclusion_file(self, dataset_dir, tmp_path, capsys):
        excl = tmp_path / "excl.txt"
        excl.write_text("5000000\n")
        code, payload = run_json(capsys, [
            "predict", "k1", "--dataset", str(dataset_dir),
            "--exclude-file", str(excl), "--no-timestamp"])
        assert code == 0
        assert payload["spc"] == 69

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

    def test_filed_until_empty_exit_3(self, dataset_dir):
        assert main(["predict", "k1", "--dataset", str(dataset_dir),
                     "--filed-until", "1900"]) == 3


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

        monkeypatch.setitem(regression._FITTERS, regression.Family.OLS, singular)
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
        # A byte-order mark must not become part of the first id, which would
        # then match no patent while n_excluded still counts it.
        excl = tmp_path / "excl.txt"
        excl.write_bytes(b"\xef\xbb\xbf5000000\n")
        code, payload = run_json(capsys, [
            "regress", "--dataset", str(dataset_dir), "--models", "4",
            "--exclude-file", str(excl), "--no-timestamp"])
        assert code == 0
        assert (payload["n_rows"], payload["n_excluded"]) == (69, 1)


class TestStoreValidation:
    @pytest.mark.parametrize("manifest", [
        b"[]",
        b'{"schema_version": 1}',
        b'{"schema_version": 1, "citation_cutoff_year": "x"}',
        b'{"schema_version": 1, "citation_cutoff_year": true}',
        b'{"schema_version": 1, "citation_cutoff_year": 2015, "note": "\xff"}',
    ], ids=["not-an-object", "no-cutoff", "string-cutoff", "bool-cutoff", "not-utf-8"])
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


class TestMalformedConfig:
    @pytest.mark.parametrize("text", ["{not json", "[1]", '{"exclusion_list": "4629819"}',
                                      '{"exclusion_list": [4629819]}'],
                             ids=["invalid-json", "top-level-list", "exclusions-string",
                                  "exclusions-ints"])
    @pytest.mark.parametrize("command", [["regress", "--models", "4"], ["predict", "k1"],
                                         ["trend", "--series", "patent-yearly-max"]],
                             ids=["regress", "predict-k1", "trend"])
    def test_input_error_naming_the_file(self, dataset_dir, tmp_path, capsys, text, command):
        config = tmp_path / "run.json"
        config.write_text(text)
        code = main([*command, "--dataset", str(dataset_dir), "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert str(config) in json.loads(captured.err)["error"]

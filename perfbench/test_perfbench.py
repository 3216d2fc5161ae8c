"""Smoke tests of the benchmark's own code at tiny sizes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import generate
import run
from cornrate import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

def _tiny(seed: int, out: Path) -> dict:
    out.mkdir()
    return generate.generate_network(seed, out, n_nodes=3000, slice_every=20,
                                     n_field_rows=200)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def _cli(capsys, *args) -> str:
    capsys.readouterr()
    assert cli.main(list(args)) == 0
    return capsys.readouterr().out


def test_generator_is_deterministic(tmp_path):
    first = _tiny(5, tmp_path / "a")
    again = _tiny(5, tmp_path / "b")
    other = _tiny(6, tmp_path / "c")
    assert first == again
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["edges.csv"] != _files(tmp_path / "c")["edges.csv"]
    assert other["patents"]["rows"] == first["patents"]["rows"]


def test_generated_counts_match_the_cli(tmp_path, capsys):
    inputs = tmp_path / "in"
    expect = _tiny(7, inputs)
    store = tmp_path / "ds"
    checker = checks.Checker(SRC, expect)
    files = {name: str(inputs / f"{name}.csv") for name in generate.INPUTS}
    for step, args in run.sequence(files, store):
        if step == "regress":
            continue  # the GLM fits are slow and covered by the fixture test below
        checker.check(step, args, _cli(capsys, *args))


def test_checker_rejects_nan_and_schema_invalid_reports(capsys):
    checker = checks.Checker(SRC, generate.fixture_expectations(ROOT))
    args = ["trend", "--series", "usda-file", "--no-timestamp"]
    text = _cli(capsys, *args)
    report = checker.check("trend", args, text)

    nan_text = text.replace(json.dumps(report["rate_k"]), "NaN")
    assert nan_text != text
    with pytest.raises(checks.CheckError, match="NaN"):
        checker.check("trend", args, nan_text)

    invalid = {k: v for k, v in report.items() if k != "rate_k"}
    with pytest.raises(checks.CheckError, match="schema"):
        checker.check("trend", args, json.dumps(invalid))


def test_checker_recomputes_k1(capsys, tmp_path):
    checker = checks.Checker(SRC, generate.fixture_expectations(ROOT))
    files = {name: str(ROOT / generate.FIXTURE_DIR / f"{name}.csv") for name in generate.INPUTS}
    (_, ingest), *_ = run.sequence(files, tmp_path / "ds")
    checker.check("ingest", ingest, _cli(capsys, *ingest))
    args = ["predict", "k1", "--dataset", str(tmp_path / "ds"), "--no-timestamp"]
    report = checker.check("predict_k1", args, _cli(capsys, *args))
    report["k1"] += 1e-6
    with pytest.raises(checks.CheckError, match="k1"):
        checker.check("predict_k1", args, json.dumps(report))


def test_self_times_subtract_children():
    spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["leaf", 2.0, 3.0, 1],
             ["inner", 5.0, 6.0, 0]]
    assert run.self_times(spans) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_traced_cli_records_nested_layer_spans(tmp_path, capsys):
    store = tmp_path / "ds"
    fixture = ROOT / generate.FIXTURE_DIR
    _cli(capsys, "ingest", "--patents", str(fixture / "patents.csv"),
         "--trials", str(fixture / "trials.csv"), "--out", str(store))
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans_path),
         "predict", "k2", "--dataset", str(store), "--nodes", str(fixture / "nodes.csv"),
         "--edges", str(fixture / "edges.csv")],
        capture_output=True, text=True, env={"PYTHONPATH": str(SRC)}, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "predict_k2"
    data = json.loads(spans_path.read_text())
    names = [s[0] for s in data["spans"]]
    for name in ("core_data.load_dataset_s", "citation_network.from_files_s",
                 "citation_network.build_s", "citation_network.spnp_exact_s",
                 "ranking.midrank_s", "citation_network.z_s"):
        assert name in names
    build = names.index("citation_network.build_s")
    assert names[data["spans"][build][3]] == "citation_network.from_files_s"
    assert 0 < data["import_s"] and 0 < data["main_s"]


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {name: (unit, better) for name, (unit, better, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_spnp_agreement_on_the_fixture_network():
    import spnp_agree

    fixture = ROOT / generate.FIXTURE_DIR
    result = spnp_agree.agreement(fixture / "nodes.csv", fixture / "edges.csv")
    assert result["max_spnp_bits"] == 13
    assert result["log_rank_mismatch"] == 0
    assert result["spnp_log_s"] > 0

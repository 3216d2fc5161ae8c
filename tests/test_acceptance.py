"""End-to-end acceptance checks for the release gate.

Each test prints one PASS/FAIL line (run pytest with -s or rely on the
captured-output report) so the gate can be audited at a glance.
"""

import json
import math
import random
import time
from importlib import resources

import numpy as np
import pytest

from cornrate.citation_metrics import predict_k1
from cornrate.citation_network import CitationNetwork, compute_spnp, predict_k2
from cornrate.cli import main
from cornrate.ingest import infer_missing_year_average
from cornrate.regression import (Family, fit_negative_binomial, fit_ols,
                                 fit_poisson, run_model, build_analysis_table)
from tests.synthetic import synthetic_dataset, write_synthetic_csvs
from cornrate.trend import TrendSeries, fit_exponential, weather_corrected_series
from cornrate.core_data import FieldTestRecord
from cornrate.yield_metrics import performance_ratio, yield_a
from tests.conftest import make_trial_set
from tests.test_citation_network import brute_force_spnp, random_dag


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_acceptance_01_usda_reproduction():
    start = time.perf_counter()
    ref = resources.files("cornrate.data") / "usda_us_corn_yield.csv"
    with resources.as_file(ref) as path:
        series = TrendSeries.read_csv(path)
    fit = fit_exponential(series.restrict(1930, 2015))
    elapsed = time.perf_counter() - start
    ok = 0.020 <= fit.k <= 0.028 and fit.r_squared >= 0.90 and elapsed < 1.0
    report(f"USDA yield trend k={fit.k:.4f} R2={fit.r_squared:.3f} "
           f"({elapsed * 1e3:.0f} ms)", ok)


def test_acceptance_02_exact_exponential_recovery():
    start = time.perf_counter()
    rng = random.Random(12345)
    worst = 0.0
    for _ in range(100):
        k = rng.uniform(-0.2, 0.2)
        q0 = rng.uniform(0.1, 100.0)
        n = rng.randint(3, 40)
        t0 = rng.randint(1900, 2010)
        series = TrendSeries(tuple(
            (t0 + i, q0 * math.exp(k * i)) for i in range(n)))
        worst = max(worst, abs(fit_exponential(series).k - k))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(f"exact exponential recovery, max |dk|={worst:.2e}", ok)


def test_acceptance_03_spnp_oracle():
    start = time.perf_counter()
    chain = CitationNetwork({"A": 2002, "B": 2001, "C": 2000},
                            [("A", "B"), ("B", "C")])
    diamond = CitationNetwork({"A": 2002, "B": 2001, "C": 2001, "D": 2000},
                              [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
    ok = (compute_spnp(chain) == {"A": 3, "B": 4, "C": 3}
          and compute_spnp(diamond) == {"A": 5, "B": 4, "C": 4, "D": 5})
    rng = random.Random(99)
    for _ in range(100):
        years, edges = random_dag(rng, max_nodes=12)
        if compute_spnp(CitationNetwork(years, edges)) != brute_force_spnp(
                years, edges):
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(f"SPNP matches path-count oracle on 100 random DAGs "
           f"({elapsed:.1f} s)", ok)


def test_acceptance_04_formula_checks():
    ok = (abs(predict_k1(2000.0, 0.0) - (-0.1285)) < 1e-12
          and abs(predict_k2(0.0, 0.0) - math.exp(-5.8486)) < 1e-12
          and abs(predict_k2(0.3261, 0.0) - 0.015) < 5e-4)
    report("rate-model formula spot checks", ok)


def test_acceptance_05_glm_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    n = 5000
    x = rng.uniform(-1, 1, size=n)
    y = rng.poisson(np.exp(0.5 + 0.3 * x))
    pois = fit_poisson(y, np.column_stack([np.ones(n), x]),
                       terms=["intercept", "x"])
    ok = (abs(pois.coefficients["intercept"] - 0.5) < 0.05
          and abs(pois.coefficients["x"] - 0.3) < 0.05)

    y0 = [1, 3, 2, 2]
    only = fit_poisson(y0, [[1.0]] * 4, terms=["intercept"])
    ok = ok and abs(only.coefficients["intercept"] - math.log(2.0)) < 1e-8

    m = 4000
    xb = rng.uniform(-1, 1, size=m)
    theta = 2.0
    yb = rng.poisson(rng.gamma(theta, np.exp(1.0 + 0.2 * xb) / theta))
    nb = fit_negative_binomial(yb, np.column_stack([np.ones(m), xb]),
                               terms=["intercept", "x"])
    ok = (ok and abs(nb.coefficients["intercept"] - 1.0) < 0.05
          and abs(nb.coefficients["x"] - 0.2) < 0.05
          and abs(nb.dispersion - theta) < 0.3)

    Xo = np.column_stack([np.ones(50), rng.normal(size=50), rng.normal(size=50)])
    yo = Xo @ [1.0, -0.4, 0.8] + rng.normal(size=50)
    ols = fit_ols(yo, Xo)
    oracle = np.linalg.solve(Xo.T @ Xo, Xo.T @ yo)
    got = np.array([ols.coefficients[t] for t in ols.terms])
    ok = ok and np.max(np.abs(got - oracle)) < 1e-10

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(f"GLM coefficient recovery ({elapsed:.1f} s)", ok)


def test_acceptance_06_weather_cancellation():
    k = 0.02
    weather = {1995 + i: 0.6 + 0.8 * ((i * 7919) % 13) / 13 for i in range(12)}
    tests = []
    for i, (year, w) in enumerate(sorted(weather.items())):
        tests.append(FieldTestRecord("IL", year, "North", "B", "CTRL",
                                     100.0 * w, 18.0))
        tests.append(FieldTestRecord("IL", year, "North", "B", "NEW",
                                     130.0 * math.exp(k * i) * w, 18.0))
    fit = fit_exponential(weather_corrected_series(tests, "North", "CTRL"))
    ok = abs(fit.k - k) < 1e-12
    report(f"weather factors cancel exactly, |dk|={abs(fit.k - k):.2e}", ok)


def test_acceptance_07_trial_table_fixture():
    a1 = yield_a(make_trial_set("5502272"))
    a2 = yield_a(make_trial_set("5491290"))
    r1 = performance_ratio(make_trial_set("5502272"))
    ok = (abs(a1 - 134.225) < 1e-3 and abs(a2 - 156.4333) < 1e-3
          and abs(r1 - 1.00636) < 1e-4)
    report(f"trial-table fixture: yield_a={a1:.3f}/{a2:.4f}, "
           f"ratio={r1:.5f}", ok)


def test_acceptance_08_missing_year_algebra():
    ok = abs(infer_missing_year_average(150.0, [155.0], 2) - 145.0) < 1e-12
    rng = random.Random(2024)
    for _ in range(200):
        m = rng.randint(2, 8)
        values = [rng.uniform(50.0, 250.0) for _ in range(m)]
        mean = math.fsum(values) / m
        inferred = infer_missing_year_average(mean, values[:-1], m)
        recomposed = math.fsum(values[:-1] + [inferred]) / m
        if abs(recomposed - mean) >= 1e-12:
            ok = False
            break
    report("missing-year inference re-averaging identity", ok)


def test_acceptance_09_synthetic_pipeline():
    ds = synthetic_dataset()
    rows = build_analysis_table(ds)
    fit = run_model(1, Family.POISSON, rows)
    coef = fit.coefficients["performance_ratio"]
    p = fit.p_values["performance_ratio"]
    ok = coef > 0 and p < 0.01
    report(f"synthetic pipeline: performance effect {coef:.2f} (p={p:.2e})", ok)


def test_acceptance_10_cli_determinism(tmp_path, capsys):
    raw = tmp_path / "raw"
    write_synthetic_csvs(raw)
    ds = tmp_path / "ds"

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr().out
        files = {p.name: p.read_bytes()
                 for p in sorted((tmp_path / "out").glob("*")) if p.is_file()}
        return code, captured, files

    commands = [
        ["ingest", "--patents", str(raw / "patents.csv"),
         "--trials", str(raw / "trials.csv"),
         "--fieldtests", str(raw / "fieldtests.csv"), "--schema", "illinois",
         "--out", str(ds), "--no-timestamp"],
        ["trend", "--series", "usda-file", "--out", str(tmp_path / "out"),
         "--no-timestamp"],
        ["predict", "k1", "--dataset", str(ds), "--out", str(tmp_path / "out"),
         "--no-timestamp"],
        ["predict", "k2", "--dataset", str(ds), "--nodes", str(raw / "nodes.csv"),
         "--edges", str(raw / "edges.csv"), "--out", str(tmp_path / "out"),
         "--no-timestamp"],
        ["regress", "--dataset", str(ds), "--models", "1,4",
         "--family", "ols,poisson", "--out", str(tmp_path / "out"),
         "--no-timestamp"],
        ["report", "--dataset", str(ds), "--out", str(tmp_path / "out"),
         "--no-timestamp"],
    ]
    ok = True
    for argv in commands:
        first = run(argv)
        second = run(argv)
        if first[0] != 0 or first != second:
            ok = False
            break
    with capsys.disabled():
        report("CLI byte-identical re-runs with --no-timestamp", ok)

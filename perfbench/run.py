"""The cornrate benchmark: seeded workloads run through the real CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {fixture,network} --seed N \\
        --seconds S --trace {0,1}

Inputs are generated from --seed (generate.py); the CLI receives only
those CSVs. Each command runs as a fresh process, one after another (a
closed loop with one client), and its report is checked (checks.py). A
command that exits non-zero or fails its check counts as failed. One
untimed warm-up command runs first so bytecode caches exist; the import
cost a user pays on every run stays in the timings.

A fixed reference task (interpreter start-up, the numpy import and a
pure-Python loop; no cornrate code) runs after every timed command. The
host's speed drifts by up to 3x for tens of seconds at a time; the
reference sees the same drift, so end-to-end times are divided by the
run's median reference time and multiplied by REFERENCE_S: they are
seconds at the speed at which the reference takes REFERENCE_S.

A pass is the workload's whole command sequence: ingest, four trend
series, predict k1, predict k2, regress and report. With --trace 0 the
run makes two extra ingests and one pass, spends the rest of --seconds
on extra samples of the queries, and prints the end-to-end metrics.
With --trace 1 it runs every command of a pass
twice, plainly and under traced_cli.py, then runs the exact-versus-log
SPNP probe (spnp_agree.py), and prints the per-layer metrics. The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

WORKLOADS = ("fixture", "network")
METRIC_KEY = {"trend": "query", "predict_k1": "query", "report": "query"}
SETUP_INGESTS = 3      # ingests per untraced run; setup_s is their median
DEADLINE_S = 170.0     # no extra sample starts that would end after this
ENTRY = "import sys; from cornrate.cli import main; sys.exit(main())"
REFERENCE = "import numpy\ns = 0\nfor i in range(500_000):\n    s += i * i\n"
REFERENCE_S = 0.35     # reference time that normalised times are scaled to

# End-to-end metric -> (unit, sample key); see untraced_run for how the
# times are formed. The light queries (trend, predict k1, report) share
# one metric, so that it gets enough samples in a run.
END_TO_END = {
    "setup_s": ("s", "ingest"),
    "query_s": ("s", "query"),
    "predict_k2_s": ("s", "predict_k2"),
    "regress_s": ("s", "regress"),
    "pipeline_s": ("s", "pipeline"),
    "peak_rss_mb": ("MB", "peak_rss"),
}

# Per-layer metric -> (unit, better, end-to-end metric it should move).
# Times are self times summed over one traced pass; cli.* are inclusive.
PER_LAYER = {
    "cli.import_s": ("s", "lower", "every *_s on fixture"),
    "cli.main_s.ingest": ("s", "lower", "setup_s (cold minus warm = start-up)"),
    "cli.main_s.trend": ("s", "lower", "query_s"),
    "cli.main_s.predict_k1": ("s", "lower", "query_s"),
    "cli.main_s.predict_k2": ("s", "lower", "predict_k2_s"),
    "cli.main_s.regress": ("s", "lower", "regress_s"),
    "cli.main_s.report": ("s", "lower", "query_s"),
    "core_data.load_patents_s": ("s", "lower", "setup_s on network"),
    "core_data.load_trial_sets_s": ("s", "lower", "setup_s on network"),
    "core_data.load_field_tests_s": ("s", "lower", "setup_s on network"),
    "core_data.save_dataset_s": ("s", "lower", "setup_s on network"),
    "core_data.load_dataset_s": ("s", "lower", "query_s, regress_s on network"),
    "core_data.rows_in": ("count", "higher", "count: data rows generated"),
    "core_data.records": ("count", "higher", "count: records ingested"),
    "core_data.row_errors": ("count", "lower", "count: rows rejected"),
    "core_data.skipped": ("count", "lower", "count: AVG rows skipped"),
    "core_data.store_bytes": ("bytes", "lower", "setup_s, load_dataset_s on network (store CSVs)"),
    "title_parser.annotate_s": ("s", "lower", "setup_s on network"),
    "title_parser.unmatched": ("count", "lower", "count: titles needing review"),
    "yield_metrics.summarize_s": ("s", "lower", "query_s on network (control)"),
    "yield_metrics.state_average_s": ("s", "lower", "query_s on network (control)"),
    "trend.fit_exponential_s": ("s", "lower", "query_s on network (control)"),
    "trend.weather_corrected_s": ("s", "lower", "query_s on network (control)"),
    "citation_metrics.internal_edges_s": ("s", "lower", "query_s on network"),
    "citation_metrics.domain_stats_s": ("s", "lower", "query_s on network"),
    "citation_network.from_files_s": ("s", "lower", "predict_k2_s, peak_rss_mb on network"),
    "citation_network.build_s": ("s", "lower", "predict_k2_s, peak_rss_mb on network"),
    "citation_network.spnp_exact_s": ("s", "lower", "predict_k2_s, peak_rss_mb on network"),
    "citation_network.centrality_s": ("s", "lower", "predict_k2_s on network"),
    "citation_network.z_s": ("s", "lower", "predict_k2_s on network"),
    "ranking.midrank_s": ("s", "lower", "predict_k2_s on network"),
    "citation_network.spnp_log_s": ("s", "lower", "predict_k2_s on network once the CLI uses log mode"),
    "citation_network.nodes": ("count", "higher", "count: network nodes"),
    "citation_network.edges": ("count", "higher", "count: network edges"),
    "citation_network.max_spnp_bits": ("bits", "lower", "count: largest exact SPNP"),
    "citation_network.log_rank_mismatch": ("count", "lower", "count: log vs exact percentiles"),
    "regression.analysis_table_s": ("s", "lower", "regress_s on network, fixture less"),
    "regression.fit_s.ols": ("s", "lower", "regress_s on network, fixture less"),
    "regression.fit_s.poisson": ("s", "lower", "regress_s on network, fixture less"),
    "regression.fit_s.negbin": ("s", "lower", "regress_s on network, fixture less"),
    "regression.fits": ("count", "higher", "count: GLM fits"),
    "regression.nonconverged": ("count", "lower", "count: fits that did not converge"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced pipeline_s"),
}


def sequence(files: dict, store: Path) -> list[tuple[str, list[str]]]:
    """One pass: (step, CLI arguments) in the order a user would run them."""
    ds = ["--dataset", str(store)]
    steps = [
        ("ingest", ["ingest", "--patents", files["patents"], "--trials", files["trials"],
                    "--fieldtests", files["fieldtests"], "--schema", "illinois",
                    "--out", str(store)]),
        ("trend", ["trend", "--series", "usda-file"]),
        ("trend", ["trend", "--series", "patent-yearly-max", *ds]),
        ("trend", ["trend", "--series", "state-average", *ds]),
        ("trend", ["trend", "--series", "weather-corrected", "--region", "North",
                   "--control", "CTRL1", *ds]),
        ("predict_k1", ["predict", "k1", *ds]),
        ("predict_k2", ["predict", "k2", *ds, "--nodes", files["nodes"],
                        "--edges", files["edges"]]),
        ("regress", ["regress", *ds, "--models", "1,2,3,4", "--family", "ols,poisson,negbin"]),
        ("report", ["report", *ds]),
    ]
    return [(step, [*args, "--no-timestamp"]) for step, args in steps]


def self_times(spans: list) -> dict[str, float]:
    """Per span name, the summed duration minus the part covered by child spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _), child in zip(spans, covered):
        totals[name] += end - start - child
    return totals


class Bench:
    def __init__(self, root: Path, work: Path, manifest: dict, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.files, self.expect = manifest["files"], manifest["expect"]
        self.checker = checks.Checker(root / "src", self.expect)
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.attempted = self.failed = 0
        self.references: list[float] = []
        self._n = 0

    def spawn(self, argv: list[str]) -> tuple[float, int, int, str, str]:
        """Run one child; returns wall seconds, exit code, max RSS (KiB), stdout, stderr."""
        self._n += 1
        out, err = self.work / f"{self._n}.out", self.work / f"{self._n}.err"
        with out.open("wb") as fo, err.open("wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=self.root, env=self.env)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (elapsed, proc.returncode, usage.ru_maxrss,
                out.read_text(encoding="utf-8", errors="replace"),
                err.read_text(encoding="utf-8", errors="replace"))

    def _count(self, ok: bool, what: str, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {why}", file=sys.stderr)

    def command(self, step: str, args: list[str], spans: Path | None = None):
        """Run and check one CLI command; returns (seconds, max RSS KiB, report or None)."""
        if spans is None:
            argv = [sys.executable, "-c", ENTRY, *args]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *args]
        elapsed, code, maxrss, stdout, stderr = self.spawn(argv)
        report, why = None, f"exit code {code}: {stderr.strip()[-300:]}"
        if code == 0:
            try:
                report = self.checker.check(step, args, stdout)
            except checks.CheckError as exc:
                why = str(exc)
        self._count(report is not None, " ".join(args[:3]), why)
        return elapsed, maxrss, report

    def reference(self) -> float:
        """Run the reference task once; returns its wall seconds."""
        elapsed, code, _, _, stderr = self.spawn([sys.executable, "-c", REFERENCE])
        if code != 0:
            raise RuntimeError(f"reference task failed: {stderr.strip()[-300:]}")
        self.references.append(elapsed)
        return elapsed

    def timed(self, step: str, args: list[str]) -> tuple[float, int]:
        """Run one command, then the reference; returns its seconds and max RSS (KiB)."""
        elapsed, maxrss, _ = self.command(step, args)
        self.reference()
        return elapsed, maxrss

    def probe(self) -> dict:
        argv = [sys.executable, str(HERE / "spnp_agree.py"),
                self.files["nodes"], self.files["edges"]]
        _, code, _, stdout, stderr = self.spawn(argv)
        result = None
        if code == 0:
            try:
                result = checks.strict_json(stdout.strip().splitlines()[-1])
            except checks.CheckError:
                pass
        self._count(result is not None, "spnp_agree", f"exit code {code}: {stderr[-300:]}")
        return result or {}


def untraced_run(bench: Bench, seconds: float) -> dict:
    steps = sequence(bench.files, bench.work / "store0")
    times: list[list[float]] = [[] for _ in steps]  # per command of the sequence
    peak_kib = 0
    start = time.monotonic()

    def run(i: int, args: list[str] | None = None) -> None:
        nonlocal peak_kib
        step, default = steps[i]
        elapsed, maxrss = bench.timed(step, args or default)
        times[i].append(elapsed)
        peak_kib = max(peak_kib, maxrss)

    def fits(i: int) -> bool:
        now = time.monotonic()
        left = min(seconds - (now - start), bench.deadline - now)
        return times[i][-1] + bench.references[-1] <= left

    for k in range(SETUP_INGESTS - 1):
        run(0, sequence(bench.files, bench.work / f"setup{k}")[0][1])
    for i in range(len(steps)):
        run(i)
    # The rest of the window takes extra samples of the queries: always of
    # the query metric that has had the least time so far, so that samples
    # of each metric spread over the whole window and a long command does
    # not crowd out the short ones; within a metric, its least-run command
    # first. A command whose last time (with a reference run) no longer
    # fits is skipped.
    positions: dict[str, list[int]] = defaultdict(list)
    for i, (step, _) in enumerate(steps):
        positions[METRIC_KEY.get(step, step)].append(i)
    while True:
        fitting = [(sum(sum(times[j]) for j in members), len(times[i]), i)
                   for key, members in positions.items() if key != "ingest"
                   for i in members if fits(i)]
        if not fitting:
            break
        run(min(fitting)[2])

    # A metric is the mean, over its commands, of each command's median,
    # so that it does not depend on how many samples each command got;
    # one pass's time is the sum of all nine medians. Times are divided by
    # the run's median reference time and scaled to REFERENCE_S.
    medians = [statistics.median(values) for values in times]
    raw = {key: (statistics.fmean(medians[i] for i in members),
                 sum(len(times[i]) for i in members))
           for key, members in positions.items()}
    raw["pipeline"] = (sum(medians), sum(len(values) for values in times))
    scale = REFERENCE_S / statistics.median(bench.references)
    metrics = {}
    for name, (unit, key) in END_TO_END.items():
        if key == "peak_rss":
            metrics[name] = (peak_kib / 1024.0, unit, 1, "")
        else:
            value, n = raw[key]
            metrics[name] = (value * scale, unit, n, f"raw {value:.3f}")
    return metrics


def _layer_totals(results: list) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for step, _, spans in results:
        try:
            data = json.loads(spans.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        totals["cli.import_s"] += data["import_s"]
        totals[f"cli.main_s.{step}"] += data["main_s"]
        for name, value in self_times(data["spans"]).items():
            totals[name] += value
    return totals


def traced_run(bench: Bench, seconds: float) -> dict:
    """Pairs of untraced and traced passes, interleaved command by command.

    Each command runs once plain and once traced, in alternating order, so
    drift during the run and first-run effects fall on both sides alike.
    """
    start = time.monotonic()
    plain, traced, layer_passes = [], [], []
    while True:
        k = len(traced)
        pairs = zip(sequence(bench.files, bench.work / f"store{2 * k}"),
                    sequence(bench.files, bench.work / f"store{2 * k + 1}"))
        plain_s = traced_s = 0.0
        last = []
        for i, ((step, plain_args), (_, traced_args)) in enumerate(pairs):
            spans = bench.work / f"{k}-{i}.spans.json"
            runs = [(plain_args, None), (traced_args, spans)]
            for args, spans_path in runs if i % 2 == 0 else runs[::-1]:
                elapsed, _, report = bench.command(step, args, spans_path)
                if spans_path is None:
                    plain_s += elapsed
                else:
                    traced_s += elapsed
                    last.append((step, report, spans_path))
        plain.append(plain_s)
        traced.append(traced_s)
        layer_passes.append(_layer_totals(last))
        now = time.monotonic()
        if plain_s + traced_s > min(seconds - (now - start), bench.deadline - now):
            break
    metrics = {name: statistics.median(p.get(name, 0.0) for p in layer_passes)
               for name, (unit, _, _) in PER_LAYER.items() if unit == "s"}

    reports = {step: report for step, report, _ in last if report is not None}
    ingest, regress = reports.get("ingest", {}), reports.get("regress", {"fits": []})
    files = ("patents", "trials", "fieldtests")
    store = bench.work / f"store{2 * len(traced) - 1}"
    probe = bench.probe()
    metrics.update({
        "core_data.rows_in": sum(bench.expect[f]["rows"] for f in files),
        "core_data.records": sum(ingest[f]["records"] for f in files) if ingest else 0,
        "core_data.row_errors": sum(len(ingest[f]["row_errors"]) for f in files) if ingest else 0,
        "core_data.skipped": sum(ingest[f]["skipped"] for f in files) if ingest else 0,
        "core_data.store_bytes": sum(p.stat().st_size for p in store.glob("*.csv")),
        "title_parser.unmatched": len(ingest.get("titles_needing_review", [])),
        "citation_network.spnp_log_s": probe.get("spnp_log_s", 0.0),
        "citation_network.nodes": bench.expect["nodes"],
        "citation_network.edges": bench.expect["edges"],
        "citation_network.max_spnp_bits": probe.get("max_spnp_bits", 0),
        "citation_network.log_rank_mismatch": probe.get("log_rank_mismatch", 0),
        "regression.fits": len(regress["fits"]),
        "regression.nonconverged": checks.nonconverged(regress),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    })
    n = len(traced)
    return {name: (metrics[name], unit, n, note) for name, (unit, _, note) in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    started = time.monotonic()
    # On SIGTERM, unwind as on an error: the running child is killed and
    # waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "cornrate" / "cli.py").is_file():
        print("perfbench: run from the root of a cornrate checkout (no src/cornrate/cli.py)",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(HERE / "generate.py"), args.workload,
                        str(args.seed), str(work / "inputs")], cwd=root, check=True)
        manifest = json.loads((work / "inputs" / "manifest.json").read_text(encoding="utf-8"))
        bench = Bench(root, work, manifest, started + DEADLINE_S)
        bench.command("trend", ["trend", "--series", "usda-file", "--no-timestamp"])  # warm-up
        run = traced_run if args.trace else untraced_run
        metrics = run(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for name, (value, unit, n, note) in metrics.items():
        print(f"{name:<38} {value:>16.6f} {unit:<6} n={n:<3} {note}")
    if bench.references:
        print(f"{'reference task':<38} {statistics.median(bench.references):>16.6f} s      "
              f"n={len(bench.references):<3} raw median; times above are scaled to {REFERENCE_S} s")
    print(f"{'failed_ops':<38} {bench.failed / bench.attempted:>16.6f} share  "
          f"{bench.failed}/{bench.attempted} CLI invocations")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

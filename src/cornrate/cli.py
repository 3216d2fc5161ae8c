"""Command-line front end: ingest, trend, predict, regress, report.

Commands emit machine-readable JSON on stdout (stable key order) and
write series/table CSVs plus the same JSON into --out. Figures are
emitted as data only; plotting is left to external tools. Exit codes:
0 success, 2 input error, 3 data/precondition error, 4 numeric failure.

Each command executes only the cornrate modules on its own path; the
others are bound at import through cornrate._lazy_module and run on first
use. Every command runs cli, constants and core_data (build_parser needs
FieldTestSchema), and report runs nothing else. ingest adds title_parser;
trend adds trend and special, plus yield_metrics for the patent and
state series; predict k1 adds citation_metrics and ranking; predict k2
adds citation_network, ranking, trend and special; regress adds
regression and what its analysis table needs. Only predict k2 and regress
import numpy.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from importlib import resources
from pathlib import Path
from typing import Optional

from . import _lazy_module, constants
from .core_data import (Dataset, DatasetError, FieldTestSchema, IngestError, PatentKind,
                        load_dataset, load_field_tests, load_patents, load_trial_sets,
                        save_dataset, write_csv)

# Executed on first use, so that each command runs only the modules on its path.
citation_metrics = _lazy_module("cornrate.citation_metrics")
citation_network = _lazy_module("cornrate.citation_network")
ranking = _lazy_module("cornrate.ranking")
regression = _lazy_module("cornrate.regression")
title_parser = _lazy_module("cornrate.title_parser")
trend = _lazy_module("cornrate.trend")
yield_metrics = _lazy_module("cornrate.yield_metrics")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class CliDataError(Exception):
    """Mapped to exit code 3."""


def _emit(payload: dict, command: str, args) -> None:
    payload = dict(payload)
    payload["command"] = command
    payload["constants"] = constants.provenance()
    if not args.no_timestamp:
        payload["created_utc"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{command}.json").write_text(text + "\n", encoding="utf-8")


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    path = Path(args.config)
    if not path.is_file():
        raise IngestError(f"missing config file: {path}")
    try:
        config = json.loads(path.read_text(encoding="utf-8-sig"))
    except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError
        raise IngestError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise IngestError(f"config file {path}: top level must be a JSON object")
    exclusions = config.get("exclusion_list", [])
    if not (isinstance(exclusions, list) and all(isinstance(e, str) for e in exclusions)):
        raise IngestError(f"config file {path}: exclusion_list must be a list of strings")
    return config


def _require_dataset(args) -> Dataset:
    if not args.dataset:
        raise IngestError("--dataset is required for this command")
    return load_dataset(args.dataset)


def _exclusions(args, config: dict) -> set[str]:
    result = set(config.get("exclusion_list", []))
    exclude_file = getattr(args, "exclude_file", None)
    if exclude_file:
        path = Path(exclude_file)
        if not path.is_file():
            raise IngestError(f"missing exclusion file: {path}")
        lines = path.read_text(encoding="utf-8-sig").splitlines()
        result.update(line.strip() for line in lines if line.strip())
    return result


# --- ingest ----------------------------------------------------------------

def cmd_ingest(args) -> int:
    if not args.out:
        raise IngestError("--out dataset directory is required")
    patents_report = load_patents(args.patents)
    trials_report = load_trial_sets(args.trials)
    prefix_table = (title_parser.PrefixTable.load(args.prefix_table)
                    if args.prefix_table else None)
    unmatched_titles = title_parser.annotate_patents(patents_report.records, prefix_table)

    field_reports = {}
    field_tests = []
    if args.fieldtests:
        if not args.schema:
            raise IngestError("--schema is required with --fieldtests")
        report = load_field_tests(args.fieldtests, args.schema, state=args.state or "")
        field_reports["fieldtests"] = report.as_dict()
        field_tests = report.records

    patents = {p.patent_number: p for p in patents_report.records}
    trial_sets = [ts for ts in trials_report.records if ts.patent_number in patents]
    dropped_trials = len(trials_report.records) - len(trial_sets)
    dataset = Dataset(patents=patents, trial_sets=trial_sets, field_tests=field_tests)
    save_dataset(dataset, args.out)
    _emit({
        "dataset_dir": str(args.out),
        "patents": patents_report.as_dict(),
        "trials": trials_report.as_dict(),
        "trial_sets_without_patent": dropped_trials,
        "titles_needing_review": unmatched_titles,
        **field_reports,
    }, "ingest", args)
    return EXIT_OK


# --- trend -----------------------------------------------------------------

def _trend_series(args) -> trend.TrendSeries:
    if args.series == "usda-file":
        if args.input:
            return trend.TrendSeries.read_csv(args.input)
        ref = resources.files("cornrate.data") / "usda_us_corn_yield.csv"
        with resources.as_file(ref) as path:
            return trend.TrendSeries.read_csv(path)
    dataset = _require_dataset(args)
    if args.series == "patent-yearly-max":
        summaries = [(dataset.patents[ts.patent_number].filed_year,
                      yield_metrics.summarize(ts))
                     for ts in dataset.trial_sets]
        if not summaries:
            raise CliDataError("dataset has no trial sets")
        return yield_metrics.yearly_max_yield(summaries)
    if args.series == "state-average":
        if not dataset.field_tests:
            raise CliDataError("dataset has no field tests")
        return yield_metrics.state_yearly_average(dataset.field_tests)
    if args.series == "weather-corrected":
        if not args.region or not args.control:
            raise IngestError("--region and --control are required for "
                              "weather-corrected series")
        return trend.weather_corrected_series(dataset.field_tests, args.region, args.control)
    raise IngestError(f"unknown series {args.series!r}")


def cmd_trend(args) -> int:
    _load_config(args)   # trend reads no key, but a malformed file is still an input error
    series = _trend_series(args)
    series = series.restrict(args.year_from, args.year_to)
    if len(series.points) < 2:
        raise CliDataError("series has fewer than 2 points after restriction")
    fit = trend.fit_exponential(series)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        series.write_csv(out / f"series_{args.series}.csv")
    _emit({"series": args.series, **fit.as_dict()}, "trend", args)
    return EXIT_OK


# --- predict ---------------------------------------------------------------

def _domain_patents(dataset: Dataset, kind: str, filed_until: Optional[int]) -> list:
    wanted = {"hybrid": {PatentKind.HYBRID}, "inbred": {PatentKind.INBRED},
              "both": {PatentKind.HYBRID, PatentKind.INBRED}}[kind]
    patents = [p for p in dataset.patents.values() if p.kind in wanted]
    if filed_until is not None:
        patents = [p for p in patents if p.filed_year <= filed_until]
    if not patents:
        raise CliDataError("no patents match the kind/filed-until selection")
    return patents


def cmd_predict(args) -> int:
    config = _load_config(args)
    dataset = _require_dataset(args)
    exclusions = _exclusions(args, config) or set(constants.HIGHLY_CITED_EXCLUSIONS)
    domain = _domain_patents(dataset, args.kind, args.filed_until)

    if args.model == "k1":
        edges = citation_metrics.build_internal_edges(dataset.patents)
        # Citing patents may fall outside the selected domain slice.
        pub_years = {n: p.granted_year for n, p in dataset.patents.items()}
        stats = citation_metrics.domain_citation_stats(domain, edges, pub_years=pub_years,
                                                       exclusions=exclusions)
        _emit({
            "kind": args.kind,
            "filed_until": args.filed_until,
            "k1": stats.k1,
            "ave_pub_year": stats.ave_pub_year,
            "cite3": stats.cite3,
            "cite3_total": stats.cite3_total,
            "spc": stats.spc,
        }, "predict_k1", args)
        return EXIT_OK

    if not args.nodes or not args.edges:
        raise IngestError("predict k2 requires --nodes and --edges network files")
    net = citation_network.CitationNetwork.from_files(args.nodes, args.edges)
    domain_numbers = sorted(p.patent_number for p in domain
                            if p.patent_number in net.application_years
                            and p.patent_number not in exclusions)
    if not domain_numbers:
        raise CliDataError("no domain patents present in the network")
    threshold = float(config.get("highly_cited_threshold",
                                 constants.DEFAULT_HIGHLY_CITED_THRESHOLD))
    citation_percentiles = ranking.midrank_percentiles(
        {p.patent_number: p.forward_citation_count for p in dataset.patents.values()
         if p.patent_number in net.application_years},
        net.application_years)
    result = citation_network.evaluate_domain(net, domain_numbers, citation_percentiles,
                                              threshold)
    payload = {
        "kind": args.kind,
        "filed_until": args.filed_until,
        "centrality": result.centrality.value,
        "n_domain": len(domain_numbers),
        "n_excluded_no_citations": result.centrality.n_excluded_no_citations,
        "n_skipped_unknown_cited": result.centrality.n_skipped_unknown_cited,
    }
    if not args.centrality_only:
        payload.update({
            "z": result.z,
            "k2": result.k2,
            "n_highly_cited": result.n_highly_cited,
            "highly_cited_threshold": threshold,
        })
    _emit(payload, "predict_k2", args)
    return EXIT_OK


# --- regress ---------------------------------------------------------------

def cmd_regress(args) -> int:
    config = _load_config(args)
    dataset = _require_dataset(args)
    exclusions = _exclusions(args, config)
    rows = regression.build_analysis_table(dataset, exclusions)
    if not rows:
        raise CliDataError("analysis table is empty after exclusions")
    model_ids = [int(m) for m in args.models.split(",")]
    families = [regression.Family(f) for f in args.family.split(",")]
    for mid in model_ids:
        if mid not in regression.MODEL_SPECS:
            raise IngestError(f"unknown model id {mid}")
    fits = []
    for mid in model_ids:
        for family in families:
            result = regression.run_model(mid, family, rows)
            if not result.converged:
                print(f"warning: model {mid} ({family.value}) did not converge",
                      file=sys.stderr)
            fits.append({"model": mid, **result.as_dict()})
    # Combined table mirroring the terms x models layout.
    terms = sorted({t for f in fits for t in f["terms"]})
    table = {term: {f"model{f['model']}_{f['family']}": f["coefficients"].get(term)
                    for f in fits} for term in terms}
    _emit({"n_rows": len(rows), "n_excluded": len(exclusions),
           "fits": fits, "coefficient_table": table}, "regress", args)
    return EXIT_OK


# --- report ----------------------------------------------------------------

def cmd_report(args) -> int:
    dataset = _require_dataset(args)
    patents = list(dataset.patents.values())

    per_year: dict[tuple[int, str], int] = {}
    for p in patents:
        kind = p.kind.value if p.kind else "unknown"
        per_year[(p.filed_year, kind)] = per_year.get((p.filed_year, kind), 0) + 1
    counts_rows = [[y, k, c] for (y, k), c in sorted(per_year.items())]

    by_assignee: dict[str, int] = {}
    for p in patents:
        by_assignee[p.assignee] = by_assignee.get(p.assignee, 0) + 1
    total = len(patents)
    share_rows = [[a, c, c / total] for a, c in
                  sorted(by_assignee.items(), key=lambda kv: (-kv[1], kv[0]))] if total else []

    backward: dict[int, list[int]] = {}
    for p in patents:
        backward.setdefault(p.filed_year, []).append(len(p.cited_patents))
    backward_rows = []
    for year in sorted(backward):
        values = backward[year]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        backward_rows.append([year, len(values), mean, math.sqrt(var)])

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "patents_per_year.csv", ["filed_year", "kind", "count"],
                  counts_rows)
        write_csv(out / "assignee_shares.csv", ["assignee", "count", "share"], share_rows)
        write_csv(out / "backward_citations.csv",
                  ["filed_year", "n_patents", "mean", "std"], backward_rows)
    _emit({
        "n_patents": total,
        "n_trial_sets": len(dataset.trial_sets),
        "n_field_tests": len(dataset.field_tests),
        "patents_per_year": [{"filed_year": r[0], "kind": r[1], "count": r[2]}
                             for r in counts_rows],
        "assignee_shares": [{"assignee": r[0], "count": r[1], "share": r[2]}
                            for r in share_rows],
        "backward_citations": [{"filed_year": r[0], "n_patents": r[1],
                                "mean": r[2], "std": r[3]} for r in backward_rows],
    }, "report", args)
    return EXIT_OK


# --- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dataset", help="dataset directory (from ingest)")
    common.add_argument("--out", help="output directory for reports and CSVs")
    common.add_argument("--config", help="JSON run configuration file")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit timestamps for byte-identical re-runs")

    parser = argparse.ArgumentParser(
        prog="cornrate",
        description="Technology improvement rate analysis from patents and field trials")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", parents=[common], help="build a dataset from CSVs")
    p.add_argument("--patents", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--fieldtests")
    p.add_argument("--schema", choices=[s.value for s in FieldTestSchema])
    p.add_argument("--state", default="")
    p.add_argument("--prefix-table", help="override the bundled title pattern table")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("trend", parents=[common], help="fit an exponential trend")
    p.add_argument("--series", required=True,
                   choices=["patent-yearly-max", "state-average", "usda-file",
                            "weather-corrected"])
    p.add_argument("--input", help="series CSV for usda-file (default: bundled)")
    p.add_argument("--from", dest="year_from", type=int)
    p.add_argument("--to", dest="year_to", type=int)
    p.add_argument("--region")
    p.add_argument("--control")
    p.set_defaults(func=cmd_trend)

    p = sub.add_parser("predict", parents=[common], help="run the K1/K2 rate models")
    p.add_argument("model", choices=["k1", "k2"])
    p.add_argument("--kind", choices=["hybrid", "inbred", "both"], default="both")
    p.add_argument("--filed-until", type=int)
    p.add_argument("--nodes", help="network node CSV (patent_number,application_year)")
    p.add_argument("--edges", help="network edge CSV (citing_patent,cited_patent)")
    p.add_argument("--exclude-file")
    p.add_argument("--centrality-only", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("regress", parents=[common], help="citation regressions")
    p.add_argument("--models", default="1,2,3,4")
    p.add_argument("--family", default="ols")
    p.add_argument("--exclude-file")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("report", parents=[common], help="descriptive statistics")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IngestError, DatasetError, FileNotFoundError) as exc:
        print(json.dumps({"error": str(exc), "exit_code": EXIT_INPUT},
                         sort_keys=True), file=sys.stderr)
        return EXIT_INPUT
    except (CliDataError, trend.TrendError, citation_network.NetworkError,
            citation_metrics.CitationError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "exit_code": EXIT_DATA},
                         sort_keys=True), file=sys.stderr)
        return EXIT_DATA
    except (regression.RegressionError, ArithmeticError) as exc:
        print(json.dumps({"error": str(exc), "exit_code": EXIT_NUMERIC},
                         sort_keys=True), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

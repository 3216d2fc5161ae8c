"""Command-line front end: ingest, trend, predict, regress, report.

Each command parses its arguments, loads its inputs, makes one library
call that returns its report (ingest.ingest_files, trend.trend_report,
citation_metrics.domain_citation_stats, citation_network.evaluate_k2,
regression.fit_models, core_data.describe_dataset), and emits that
report: strict JSON on stdout (stable key order) and, with --out, the
same JSON plus the command's series or table CSVs in that directory.
ingest's --out is the dataset store it writes instead, and its report
goes to stdout only. Each command takes only the options it reads.
Figures are data only.

predict and regress drop the patents of the --config exclusion_list from
the loaded dataset (core_data.without_patents) before their library call;
the citation network keeps them as nodes. Without that list, predict
excludes constants.HIGHLY_CITED_EXCLUSIONS and regress nothing. predict
passes the list to core_data.select_domain too, so a domain that only
the exclusions empty is an error saying so.

Exit codes: 0 success, 2 input error, 3 data/precondition error, 4
numeric failure. The exception that stops a command sets the code: a
core_data.CornrateError carries its exit_code, and BUILTIN_EXIT_CODES
maps the builtin exceptions.

The modules off a command's path are bound through cornrate._lazy_module
and never run. Every command runs cli, constants and core_data, and report
nothing else; ingest adds ingest and title_parser; trend adds trend and
special, plus yield_metrics for the patent and state series; predict k1
adds citation_metrics and ranking; predict k2 adds citation_network,
ranking, trend and special; regress adds regression and what its
analysis table needs. Only predict k2 and regress import numpy; cornrate
imports datetime only for ingest's store manifest and a report's
timestamp. main parses and runs the command with the cyclic garbage
collector paused (core_data._without_gc).

Importing cli registers gc.freeze to run at interpreter exit. The
interpreter's finalizer then finds every object in the permanent
generation, so its closing collections walk nothing. They would only tear
down module functions, classes and dicts that the OS reclaims anyway.
Other atexit handlers, the stdio flush and the exit code are unaffected.
main itself never freezes, since in-process callers run it many times
and a freeze would pin each run's uncollected cycles.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from operator import itemgetter
from pathlib import Path

from . import _lazy_module, constants
from .core_data import (REPORT_TABLES, CornrateError, Dataset, FieldTestSchema, IngestError,
                        _without_gc, describe_dataset, load_dataset, read_text, select_domain,
                        without_patents, write_csv)

# Executed on first use, so that each command runs only the modules on its path.
# ranking, title_parser and yield_metrics are bound too, though not called here,
# so that importing cli binds every module.
citation_metrics = _lazy_module("cornrate.citation_metrics")
citation_network = _lazy_module("cornrate.citation_network")
ingest = _lazy_module("cornrate.ingest")
ranking = _lazy_module("cornrate.ranking")
regression = _lazy_module("cornrate.regression")
title_parser = _lazy_module("cornrate.title_parser")
trend = _lazy_module("cornrate.trend")
yield_metrics = _lazy_module("cornrate.yield_metrics")

# Exit code of each builtin exception a command may raise. An OSError (a missing
# input file, an --out path that is a file or is not writable) is an input error.
BUILTIN_EXIT_CODES = {OSError: 2, ValueError: 3, ArithmeticError: 4}

# Runs after every handler registered later (atexit is last in, first out).
atexit.register(gc.freeze)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(payload: dict, command: str, args) -> None:
    payload = dict(payload)
    payload["command"] = command
    payload["constants"] = constants.provenance()
    if not args.no_timestamp:
        import datetime
        payload["created_utc"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    # ingest has no report directory: its --out is the store (args.store), which
    # holds only the files save_dataset writes. The report file is written first,
    # so that a command whose --out cannot be written prints no report.
    if getattr(args, "out", None):
        (_out_dir(args) / f"{command}.json").write_text(text + "\n", encoding="utf-8")
    print(text)


def _load_config(args) -> tuple[set[str], float]:
    """The run's exclusion set and highly-cited threshold, from --config or the defaults."""
    path = Path(args.config) if args.config else None
    config = {}
    if path:
        try:
            config = json.loads(read_text(path))
        except ValueError as exc:
            raise IngestError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise IngestError(f"config file {path}: top level must be a JSON object")
    exclusions = config.get("exclusion_list", args.default_exclusions)
    if not (isinstance(exclusions, list) and all(isinstance(e, str) for e in exclusions)):
        raise IngestError(f"config file {path}: exclusion_list must be a list of strings")
    threshold = config.get("highly_cited_threshold", constants.DEFAULT_HIGHLY_CITED_THRESHOLD)
    # type(), not isinstance(): a bool is an int but no percentile. NaN fails the range.
    if type(threshold) not in (int, float) or not 0 < threshold < 1:
        raise IngestError(f"config file {path}: highly_cited_threshold must be a number "
                          f"in (0, 1), found {threshold!r}")
    return set(exclusions), threshold


def _require_dataset(args) -> Dataset:
    if not args.dataset:
        raise IngestError("--dataset is required for this command")
    return load_dataset(args.dataset)


# --- ingest ----------------------------------------------------------------

def cmd_ingest(args) -> int:
    if not args.store:
        raise IngestError("--out dataset directory is required")
    _emit(ingest.ingest_files(args.patents, args.trials, args.store, args.fieldtests,
                              args.schema, args.state, args.prefix_table),
          "ingest", args)
    return 0


# --- trend -----------------------------------------------------------------

def cmd_trend(args) -> int:
    dataset = None if args.series == "usda-file" else _require_dataset(args)
    payload, series = trend.trend_report(args.series, dataset, args.input, args.region,
                                         args.control, args.year_from, args.year_to)
    if args.out:
        series.write_csv(_out_dir(args) / f"series_{args.series}.csv")
    _emit(payload, "trend", args)
    return 0


# --- predict ---------------------------------------------------------------

def cmd_predict(args) -> int:
    exclusions, threshold = _load_config(args)
    dataset = _require_dataset(args)
    domain = select_domain(dataset, args.kind, args.filed_until, exclusions)
    dataset = without_patents(dataset, exclusions)
    selection = {"kind": args.kind, "filed_until": args.filed_until}
    if args.model == "k1":
        payload = citation_metrics.domain_citation_stats(dataset.patents, domain)
        _emit({**selection, **payload}, "predict_k1", args)
        return 0

    if not args.nodes or not args.edges:
        raise IngestError("predict k2 requires --nodes and --edges network files")
    net = citation_network.CitationNetwork.from_files(args.nodes, args.edges)
    payload = citation_network.evaluate_k2(net, dataset.patents, domain, threshold)
    _emit({**selection, **payload}, "predict_k2", args)
    return 0


# --- regress ---------------------------------------------------------------

def cmd_regress(args) -> int:
    exclusions, _ = _load_config(args)
    dataset = without_patents(_require_dataset(args), exclusions)
    payload = regression.fit_models(dataset, args.models, args.family)
    for fit in payload["fits"]:
        if not fit["converged"]:
            print(f"warning: model {fit['model']} ({fit['family']}) did not converge",
                  file=sys.stderr)
    _emit({**payload, "n_excluded": len(exclusions)}, "regress", args)
    return 0


# --- report ----------------------------------------------------------------

def cmd_report(args) -> int:
    payload = describe_dataset(_require_dataset(args))
    if args.out:
        for name, columns in REPORT_TABLES.items():
            write_csv(_out_dir(args) / f"{name}.csv", columns,
                      map(itemgetter(*columns), payload[name]))
    _emit(payload, "report", args)
    return 0


# --- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit timestamps for byte-identical re-runs")
    reader = argparse.ArgumentParser(add_help=False, parents=[common])
    reader.add_argument("--dataset", help="dataset directory (from ingest)")
    reader.add_argument("--out", help="output directory for reports and CSVs")
    configured = argparse.ArgumentParser(add_help=False, parents=[reader])
    configured.add_argument("--config", help="JSON run configuration file")

    parser = argparse.ArgumentParser(
        prog="cornrate",
        description="Technology improvement rate analysis from patents and field trials")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", parents=[common], help="build a dataset from CSVs")
    p.add_argument("--out", dest="store", help="dataset directory to write")
    p.add_argument("--patents", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--fieldtests")
    p.add_argument("--schema", choices=[s.value for s in FieldTestSchema])
    p.add_argument("--state", default="")
    p.add_argument("--prefix-table", help="override the bundled title pattern table")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("trend", parents=[reader], help="fit an exponential trend")
    p.add_argument("--series", required=True,
                   choices=["patent-yearly-max", "state-average", "usda-file",
                            "weather-corrected"])
    p.add_argument("--input", help="series CSV for usda-file (default: bundled)")
    p.add_argument("--from", dest="year_from", type=int)
    p.add_argument("--to", dest="year_to", type=int)
    p.add_argument("--region")
    p.add_argument("--control", help="control variety (default: the longest run in --region)")
    p.set_defaults(func=cmd_trend)

    p = sub.add_parser("predict", parents=[configured], help="run the K1/K2 rate models")
    p.add_argument("model", choices=["k1", "k2"])
    p.add_argument("--kind", choices=["hybrid", "inbred", "both"], default="both")
    p.add_argument("--filed-until", type=int)
    p.add_argument("--nodes", help="network node CSV (patent_number,application_year)")
    p.add_argument("--edges", help="network edge CSV (citing_patent,cited_patent)")
    p.set_defaults(func=cmd_predict,
                   default_exclusions=list(constants.HIGHLY_CITED_EXCLUSIONS))

    p = sub.add_parser("regress", parents=[configured], help="citation regressions")
    p.add_argument("--models", default="1,2,3,4")
    p.add_argument("--family", default="ols")
    p.set_defaults(func=cmd_regress, default_exclusions=[])

    p = sub.add_parser("report", parents=[reader], help="descriptive statistics")
    p.set_defaults(func=cmd_report)
    return parser


# The collector stays paused for the whole command, numpy's import included; a
# command's heap is mostly acyclic records, which reference counts free.
@_without_gc
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CornrateError, *BUILTIN_EXIT_CODES) as exc:
        code = exc.exit_code if isinstance(exc, CornrateError) else next(
            code for cls, code in BUILTIN_EXIT_CODES.items() if isinstance(exc, cls))
        print(json.dumps({"error": str(exc), "exit_code": code}, sort_keys=True),
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

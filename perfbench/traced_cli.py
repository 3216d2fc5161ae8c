"""Run one cornrate CLI command in-process with a span around each layer call.

Usage: python3 perfbench/traced_cli.py SPANS_JSON CLI_ARG...

The public functions of each module are wrapped from outside: the
wrapper replaces the function in every cornrate module namespace, and in
every module-level dict (such as a dispatch table), that holds it. Spans
(name, start, end, parent index) are kept in memory and written to
SPANS_JSON when the command ends, together with the time taken to import
cornrate.cli and the time spent in cli.main. The command's stdout and
exit code are those of the CLI.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from importlib import import_module

# Span name -> (module, attribute); "Class.method" wraps a method.
LAYERS = {
    "core_data.load_patents_s": ("cornrate.core_data", "load_patents"),
    "core_data.load_trial_sets_s": ("cornrate.core_data", "load_trial_sets"),
    "core_data.load_field_tests_s": ("cornrate.core_data", "load_field_tests"),
    "core_data.save_dataset_s": ("cornrate.core_data", "save_dataset"),
    "core_data.load_dataset_s": ("cornrate.core_data", "load_dataset"),
    "title_parser.annotate_s": ("cornrate.title_parser", "annotate_patents"),
    "yield_metrics.summarize_s": ("cornrate.yield_metrics", "summarize"),
    "yield_metrics.state_average_s": ("cornrate.yield_metrics", "state_yearly_average"),
    "trend.fit_exponential_s": ("cornrate.trend", "fit_exponential"),
    "trend.weather_corrected_s": ("cornrate.trend", "weather_corrected_series"),
    "citation_metrics.internal_edges_s": ("cornrate.citation_metrics", "build_internal_edges"),
    "citation_metrics.domain_stats_s": ("cornrate.citation_metrics", "domain_citation_stats"),
    "citation_network.from_files_s": ("cornrate.citation_network", "CitationNetwork.from_files"),
    "citation_network.build_s": ("cornrate.citation_network", "CitationNetwork.__init__"),
    "citation_network.spnp_s": ("cornrate.citation_network", "compute_spnp"),
    "citation_network.centrality_s": ("cornrate.citation_network", "domain_centrality"),
    "citation_network.z_s": ("cornrate.citation_network", "compute_z"),
    "ranking.midrank_s": ("cornrate.ranking", "midrank_percentiles"),
    "regression.analysis_table_s": ("cornrate.regression", "build_analysis_table"),
    "regression.fit_s.ols": ("cornrate.regression", "fit_ols"),
    "regression.fit_s.poisson": ("cornrate.regression", "fit_poisson"),
    "regression.fit_s.negbin": ("cornrate.regression", "fit_negative_binomial"),
}


def _spnp_name(args, kwargs) -> str:
    approximate = kwargs.get("approximate", args[1] if len(args) > 1 else False)
    return "citation_network.spnp_log_s" if approximate else "citation_network.spnp_exact_s"


class Tracer:
    """In-memory span recorder; a span's parent is the span open when it began."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        name_of = _spnp_name if name == "citation_network.spnp_s" else (lambda a, k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name_of(args, kwargs), time.perf_counter(), None,
                               self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()

        return traced


def install(tracer: Tracer) -> None:
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "cornrate" or name.startswith("cornrate."))]
    for name, (module_name, attr) in LAYERS.items():
        module = import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, method, tracer.wrap(name, raw))
            continue
        original = getattr(module, attr)
        traced = tracer.wrap(name, original)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, traced)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = traced


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    cli = import_module("cornrate.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - start
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"import_s": import_s, "main_s": main_s, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

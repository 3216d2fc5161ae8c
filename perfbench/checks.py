"""Output checks for the reports of the cornrate CLI.

Every report is parsed as strict JSON (the NaN and Infinity tokens are
rejected), validated against the bundled schema of its command, and
compared with the counts the input generator recorded. K1 and K2 are
recomputed from the reported inputs and cornrate.constants.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import jsonschema

USDA_YEARS = 86          # bundled USDA series, 1930-2015
USDA_RATE_K = 0.0248     # its published exponential rate
REL_TOL = 1e-12


class CheckError(Exception):
    """A report is malformed or disagrees with the inputs."""


def _reject_constant(token: str):
    raise CheckError(f"non-finite JSON token {token}")


def strict_json(text: str) -> dict:
    try:
        value = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise CheckError("report is not a JSON object")
    return value


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _arg(args: list[str], flag: str) -> str:
    return args[args.index(flag) + 1]


def load_constants(src: Path):
    """cornrate.constants from the given source tree, without importing the package."""
    spec = importlib.util.spec_from_file_location(
        "cornrate_constants", src / "cornrate" / "constants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Checker:
    """Checks each command's report against one workload's expectations."""

    def __init__(self, src: Path, expect: dict):
        schemas = src / "cornrate" / "data" / "schemas"
        self.validators = {
            path.name.removesuffix(".schema.json"):
                jsonschema.Draft7Validator(json.loads(path.read_text(encoding="utf-8")))
            for path in schemas.glob("*.schema.json")}
        self.constants = load_constants(src)
        self.expect = expect

    def check(self, step: str, args: list[str], stdout: str) -> dict:
        """Return the parsed report of one command, or raise CheckError."""
        report = strict_json(stdout)
        _require(report.get("command") == step,
                 f"command field {report.get('command')!r}, expected {step!r}")
        errors = sorted(self.validators[step].iter_errors(report), key=str)
        if errors:
            raise CheckError(f"schema: {errors[0].message}")
        _require(report["constants"] == self.constants.provenance(),
                 "constants block differs from cornrate.constants")
        getattr(self, f"_{step}")(report, args)
        return report

    def _ingest(self, r: dict, args: list[str]) -> None:
        e = self.expect
        for name in ("patents", "trials", "fieldtests"):
            got = r[name]
            counts = (got["records"], len(got["row_errors"]), got["skipped"])
            want = (e[name]["records"], e[name]["row_errors"], e[name]["skipped"])
            _require(counts == want, f"{name} records/row_errors/skipped {counts}, expected {want}")
        # Trial records are per-patent groups, so only the row-level files
        # satisfy records + row_errors + skipped == data rows.
        for name in ("patents", "fieldtests"):
            got = r[name]
            covered = got["records"] + len(got["row_errors"]) + got["skipped"]
            _require(covered == e[name]["rows"],
                     f"{name} accounting covers {covered} of {e[name]['rows']} data rows")
        _require(r["trial_sets_without_patent"] == e["trial_sets_without_patent"],
                 "trial_sets_without_patent differs from the generated count")
        _require(len(r["titles_needing_review"]) == e["titles_needing_review"],
                 f"{len(r['titles_needing_review'])} titles need review, "
                 f"expected {e['titles_needing_review']}")

    def _trend(self, r: dict, args: list[str]) -> None:
        _require(r["series"] == _arg(args, "--series"), "series name differs")
        _require(r["n"] >= 3, f"only {r['n']} points fitted")
        _require(r["q0"] > 0, "nonpositive q0")
        _require(0.0 <= r["r_squared"] <= 1.0, "r_squared outside [0, 1]")
        _require(0.0 <= r["p_value"] <= 1.0, "p_value outside [0, 1]")
        if r["series"] == "usda-file":
            _require(r["n"] == USDA_YEARS, f"usda series has {r['n']} points")
            _require(abs(r["rate_k"] - USDA_RATE_K) < 5e-4, f"usda rate_k {r['rate_k']}")

    def _predict_k1(self, r: dict, args: list[str]) -> None:
        c, e = self.constants, self.expect
        _require(r["spc"] == e["domain_patents"],
                 f"spc {r['spc']}, expected {e['domain_patents']}")
        _require(_close(r["ave_pub_year"], e["ave_pub_year"]), "ave_pub_year differs")
        _require(r["cite3"] >= 0 and r["cite3_total"] >= 0, "negative cite3")
        k1 = c.K1_INTERCEPT + c.K1_AVE_PUB_YEAR * r["ave_pub_year"] + c.K1_CITE3 * r["cite3"]
        _require(_close(r["k1"], k1), f"k1 {r['k1']} != recomputed {k1}")

    def _predict_k2(self, r: dict, args: list[str]) -> None:
        c = self.constants
        _require(r["n_domain"] == self.expect["network_domain"],
                 f"n_domain {r['n_domain']}, expected {self.expect['network_domain']}")
        _require(0.0 <= r["centrality"] <= 1.0, "centrality outside [0, 1]")
        _require(0 <= r["n_highly_cited"] <= r["n_domain"], "n_highly_cited out of range")
        k2 = math.exp(c.K2_CENTRALITY * r["centrality"] + c.K2_Z * r["z"] + c.K2_INTERCEPT)
        _require(_close(r["k2"], k2), f"k2 {r['k2']} != recomputed {k2}")

    def _regress(self, r: dict, args: list[str]) -> None:
        n_rows = self.expect["analysis_rows"]
        _require(r["n_rows"] == n_rows, f"n_rows {r['n_rows']}, expected {n_rows}")
        models = _arg(args, "--models").split(",")
        families = _arg(args, "--family").split(",")
        _require(len(r["fits"]) == len(models) * len(families),
                 f"{len(r['fits'])} fits, expected {len(models) * len(families)}")
        for fit in r["fits"]:
            _require(fit["n"] == n_rows, "fit row count differs from n_rows")
            _require(fit["family"] in families, f"unexpected family {fit['family']}")
            _require(set(fit["coefficients"]) == set(fit["terms"]), "coefficients miss terms")
            _require(all(isinstance(v, (int, float)) for v in fit["coefficients"].values()),
                     "non-numeric coefficient")

    def _report(self, r: dict, args: list[str]) -> None:
        e = self.expect
        _require(r["n_patents"] == e["patents"]["records"], "n_patents differs from ingest")
        _require(r["n_trial_sets"] == e["analysis_rows"], "n_trial_sets differs from ingest")
        _require(r["n_field_tests"] == e["fieldtests"]["records"],
                 "n_field_tests differs from ingest")
        _require(sum(row["count"] for row in r["patents_per_year"]) == r["n_patents"],
                 "patents_per_year does not sum to n_patents")
        _require(math.isclose(math.fsum(row["share"] for row in r["assignee_shares"]), 1.0,
                              rel_tol=1e-9), "assignee shares do not sum to 1")


def nonconverged(report: dict) -> int:
    """Fits of a regress report that exited 0 but did not converge."""
    return sum(not fit["converged"] for fit in report["fits"])

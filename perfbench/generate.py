"""Seeded, linear-time input generators for the cornrate benchmark.

Each workload's inputs are written as the raw CSVs `cornrate ingest`
reads (patents, trials, Illinois-layout field tests) plus a citation
network (nodes, edges), and a manifest.json holding the counts the
benchmark checks the CLI's reports against. The same seed always gives
the same files.

About 1% of rows are malformed in ways the loaders already reject
(garbled years, swapped filed/granted years, negative citation counts,
empty patent numbers, non-numeric or nonpositive yields, out-of-range
moisture). No NaN values, infinities or byte-order marks are written:
the loaders mishandle those today, which is a defect for the test suite
to pin down, not something to time.

Usage: python3 perfbench/generate.py {fixture,network} SEED OUTDIR
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

# (template, matched by a bundled title pattern, patent kind the title implies)
TITLE_TEMPLATES = (
    ("Inbred corn line {}", True, "inbred"),
    ("Hybrid corn variety {}", True, "hybrid"),
    ("Hybrid maize plant and seed {}", True, "hybrid"),
    ("Inbred maize line {}", True, "inbred"),
    ("Maize variety inbred {}", True, "inbred"),
    ("Seed and plants of maize line {}", False, "inbred"),
)
ASSIGNEES = ("PIONEER", "DEKALB", "CARGILL", "GOLDEN HARVEST", "SYNGENTA", "MONSANTO")
REGIONS = ("North", "Central", "South")
CONTROL = "CTRL1"  # long-running control variety, tested in North every year
MALFORMED_SHARE = 0.01

FIXTURE_DIR = Path("src/cornrate/data/synthetic")
INPUTS = ("patents", "trials", "fieldtests", "nodes", "edges")


def _title_info(title: str) -> tuple[bool, str]:
    for template, matched, kind in TITLE_TEMPLATES:
        if title.startswith(template.format("")):
            return matched, kind
    raise ValueError(f"title outside the known templates: {title!r}")


def _accounting(expect: dict, name: str, rows: int, records: int, errors: int,
                skipped: int = 0) -> None:
    expect[name] = {"rows": rows, "records": records, "row_errors": errors,
                    "skipped": skipped}


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _monotone_years(n: int, first: int, span: int, offset: float = 0.0) -> np.ndarray:
    """Year of each index when n items spread evenly over span years.

    Shifting by an offset in years keeps the sequence nondecreasing, so a
    grant year built this way never precedes an earlier index's grant year
    and every citation to an earlier index is forward in time.
    """
    idx = np.arange(n) + round(offset * n / span)
    return first + (idx * span) // n


def _citations(rng, n: int, mean_cites: float, mean_lag: float) -> tuple[np.ndarray, np.ndarray]:
    """Each index cites Poisson(mean_cites) earlier indices at exponential lags."""
    counts = rng.poisson(mean_cites, n)
    citing = np.repeat(np.arange(n, dtype=np.int64), counts)
    cited = citing - np.ceil(rng.exponential(mean_lag, citing.size)).astype(np.int64)
    keep = cited >= 0
    pairs = np.unique(citing[keep] * n + cited[keep])
    return pairs // n, pairs % n


def _domain_files(rng, out: Path, numbers: list[str], filed: np.ndarray,
                  granted: np.ndarray, cited: list[list[str]], forward: np.ndarray,
                  n_field_rows: int) -> dict:
    """Write patents/trials/fieldtests CSVs for one patent collection.

    Returns the expected ingest accounting and downstream counts.
    """
    n = len(numbers)
    expect: dict = {}
    quality = np.abs(rng.normal(0.03, 0.03, n))
    template_ix = rng.integers(0, len(TITLE_TEMPLATES), n)
    bad_patent = rng.random(n) < MALFORMED_SHARE
    bad_kind = rng.integers(0, 4, n)

    patent_rows = []
    valid: set[str] = set()
    unmatched = 0
    domain_grant_years = []
    for i in range(n):
        template, matched, kind = TITLE_TEMPLATES[template_ix[i]]
        row = [numbers[i], template.format(f"CR{i:06d}"), ASSIGNEES[i % len(ASSIGNEES)],
               str(filed[i]), str(granted[i]), str(forward[i]), ";".join(cited[i])]
        if bad_patent[i]:
            if bad_kind[i] == 0:
                row[3] = f"{filed[i] // 10}x{filed[i] % 10}"
            elif bad_kind[i] == 1:
                row[3], row[4] = str(granted[i] + 1), str(granted[i])
            elif bad_kind[i] == 2:
                row[5] = "-1"
            else:
                row[0] = ""
        else:
            valid.add(numbers[i])
            unmatched += not matched
            if kind in ("hybrid", "inbred"):
                domain_grant_years.append(int(granted[i]))
        patent_rows.append(row)
    _write_csv(out / "patents.csv", ["patent_number", "title", "assignee", "filed_year",
                                     "granted_year", "forward_citations", "cited_patents"],
               patent_rows)
    _accounting(expect, "patents", n, len(valid), n - len(valid))
    expect["titles_needing_review"] = unmatched
    expect["domain_patents"] = len(domain_grant_years)
    expect["ave_pub_year"] = math.fsum(domain_grant_years) / len(domain_grant_years)

    # Trials: 3-6 head-to-head comparisons per patent, half with an AVG row.
    n_comp = rng.integers(3, 7, n)
    has_avg = rng.random(n) < 0.5
    trial_rows = []
    errors = skipped = groups = with_patent = 0
    for i in range(n):
        variety = f"CR{i:06d}"
        base = 100.0 * math.exp(0.015 * (int(filed[i]) - 1976))
        controls = base * rng.uniform(0.9, 1.1, n_comp[i])
        ratios = 1.0 + quality[i] + rng.normal(0.0, 0.005, n_comp[i])
        bad = rng.random(n_comp[i]) < MALFORMED_SHARE
        good = 0
        for j in range(n_comp[i]):
            row = [numbers[i], variety, f"C{i % 97:02d}{j}",
                   f"{controls[j] * ratios[j]:.1f}", f"{controls[j]:.1f}"]
            if bad[j]:
                if j % 2:
                    row[3] = "n/a"
                else:
                    row[4] = "0"
                errors += 1
            else:
                good += 1
            trial_rows.append(row)
        if has_avg[i]:
            trial_rows.append([numbers[i], variety, "AVG",
                               f"{base * (1 + quality[i]):.1f}", f"{base:.1f}"])
            skipped += 1
        if good:
            groups += 1
            with_patent += numbers[i] in valid
        elif has_avg[i]:
            errors += 1  # group holding only its summary row
    _write_csv(out / "trials.csv", ["patent_number", "patented_variety", "control_variety",
                                    "patented_yield", "control_yield"], trial_rows)
    _accounting(expect, "trials", len(trial_rows), groups, errors, skipped)
    expect["trial_sets_without_patent"] = groups - with_patent
    expect["analysis_rows"] = with_patent

    # Illinois-layout field tests; CTRL1 runs in North every year.
    years = list(range(1990, 2016))
    per_cell = max(2, n_field_rows // (len(years) * len(REGIONS)))
    field_rows = []
    errors = 0
    for year in years:
        for region in REGIONS:
            weather = rng.uniform(0.8, 1.2)
            noise = rng.normal(0.0, 0.02, per_cell)
            moisture = rng.uniform(14.0, 22.0, per_cell)
            bad = rng.random(per_cell) < MALFORMED_SHARE
            for j in range(per_cell):
                name = CONTROL if region == "North" and j == 0 else \
                    f"FT{region[0]}{(j + year) % (2 * per_cell):03d}"
                level = 150.0 * math.exp(0.015 * (year - 1990)) * (1.0 + 0.002 * j)
                row = [str(year), region, ASSIGNEES[j % len(ASSIGNEES)], name,
                       f"{level * weather * (1.0 + noise[j]):.1f}", f"{moisture[j]:.1f}"]
                if bad[j] and name != CONTROL:
                    row[(4, 5, 0)[j % 3]] = ("0", "130.0", f"{year // 10}O{year % 10}")[j % 3]
                    errors += 1
                field_rows.append(row)
    _write_csv(out / "fieldtests.csv", ["Year", "Region", "Brand", "Hybrid", "Yield",
                                        "Moisture"], field_rows)
    _accounting(expect, "fieldtests", len(field_rows), len(field_rows) - errors, errors)
    return expect


def _network_files(out: Path, ids: list[str], years: np.ndarray,
                   citing: np.ndarray, cited: np.ndarray) -> None:
    _write_csv(out / "nodes.csv", ["patent_number", "application_year"],
               zip(ids, years.tolist()))
    with (out / "edges.csv").open("w", encoding="utf-8") as f:
        f.write("citing_patent,cited_patent\n")
        f.write("".join(f"{ids[a]},{ids[b]}\n" for a, b in zip(citing.tolist(), cited.tolist())))


def generate_network(seed: int, out: Path, n_nodes: int = 50_000,
                     slice_every: int = 100, n_field_rows: int = 500) -> dict:
    """A 1976-2015 citation DAG plus a domain slice of its nodes as patents.

    Each node cites Poisson(5) earlier nodes at exponential lags with a
    mean of 2000 nodes.
    """
    rng = np.random.default_rng(seed)
    n = n_nodes
    ids = [str(6_000_000 + i) for i in range(n)]
    years = _monotone_years(n, 1976, 40)
    granted_all = _monotone_years(n, 1976, 40, offset=1.5)
    citing, cited = _citations(rng, n, 5.0, 2000.0)
    _network_files(out, ids, years, citing, cited)

    in_degree = np.bincount(cited, minlength=n)
    starts = np.searchsorted(citing, np.arange(n + 1))
    members = np.arange(0, n, slice_every)
    cited_lists = [[ids[c] for c in cited[starts[m]:starts[m + 1]].tolist()] for m in members]
    expect = _domain_files(rng, out, [ids[m] for m in members], years[members],
                           granted_all[members], cited_lists, in_degree[members], n_field_rows)
    expect.update(network_domain=expect["domain_patents"], nodes=n, edges=int(citing.size))
    return expect


def fixture_expectations(root: Path = Path(".")) -> dict:
    """Counts for the bundled 70-patent fixture, read from its CSVs."""
    base = root / FIXTURE_DIR

    def rows(name):
        with (base / f"{name}.csv").open(newline="", encoding="utf-8") as f:
            return list(csv.DictReader(f))

    patents, trials, fieldtests = rows("patents"), rows("trials"), rows("fieldtests")
    expect: dict = {}
    _accounting(expect, "patents", len(patents), len(patents), 0)
    comparisons = [r for r in trials if r["control_variety"] != "AVG"]
    groups = {r["patent_number"] for r in comparisons}
    _accounting(expect, "trials", len(trials), len(groups), 0, len(trials) - len(comparisons))
    _accounting(expect, "fieldtests", len(fieldtests), len(fieldtests), 0)
    info = [_title_info(p["title"]) for p in patents]
    domain_years = [int(p["granted_year"]) for p, (_, kind) in zip(patents, info)
                    if kind in ("hybrid", "inbred")]
    numbers = {p["patent_number"] for p in patents}
    expect.update(
        titles_needing_review=sum(not matched for matched, _ in info),
        trial_sets_without_patent=len(groups - numbers),
        analysis_rows=len(groups & numbers),
        domain_patents=len(domain_years),
        ave_pub_year=math.fsum(domain_years) / len(domain_years),
        network_domain=len(domain_years),
        nodes=len(rows("nodes")),
        edges=len(rows("edges")),
    )
    return expect


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs into out; returns and saves the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "fixture":
        base, expect = FIXTURE_DIR, fixture_expectations()
    else:
        base, expect = out, generate_network(seed, out)
    files = {name: str(base / f"{name}.csv") for name in INPUTS}
    manifest = {"workload": workload, "seed": seed, "files": files, "expect": expect}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__.rsplit("Usage: ", 1)[1])
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))

"""Seeded synthetic fixture: 70 patents with trials and field tests.

The real analysis dataset is not redistributable, so this generator
produces a structurally equivalent stand-in with known ground truth: a
positive effect of the trial performance ratio on forward citations
(log-linear, TRUE_PERFORMANCE_EFFECT), an exponential yield trend at
TRUE_IMPROVEMENT_RATE, and per-year multiplicative weather factors
shared by all varieties within a region. Everything is deterministic
given the seed.

The bundled fixture in src/cornrate/data/synthetic is this generator's
output; regenerate it from the repository root with

    PYTHONPATH=src python -m tests.synthetic src/cornrate/data/synthetic
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from cornrate.core_data import (EDGE_COLUMNS, ILLINOIS_COLUMNS, NODE_COLUMNS, PATENT_COLUMNS,
                                TRIAL_COLUMNS, Dataset, FieldTestRecord, PatentRecord,
                                PatentTrialSet, TrialComparison, write_csv)
from cornrate.title_parser import annotate_patents

DEFAULT_SEED = 20160826
TRUE_IMPROVEMENT_RATE = 0.015
TRUE_PERFORMANCE_EFFECT = 25.0  # per unit of performance ratio, log scale

_ASSIGNEES = ("PIONEER", "DEKALB", "CARGILL", "GOLDEN HARVEST")
_REGIONS = ("North", "South")


def synthetic_dataset(seed: int = DEFAULT_SEED, n_patents: int = 70) -> Dataset:
    rng = np.random.default_rng(seed)
    patents: dict[str, PatentRecord] = {}
    trial_sets: list[PatentTrialSet] = []
    numbers: list[str] = []

    for i in range(n_patents):
        number = str(5000000 + i * 1111)
        filed = 1985 + (i % 26)  # covers 1985..2010
        granted = filed + int(rng.integers(1, 4))
        inbred = i % 5 == 4
        variety = f"SYN{i:04d}"
        title = (f"Inbred corn line {variety}" if inbred
                 else f"Hybrid corn variety {variety}")
        # Latent quality drives both trial ratios and citations received.
        quality = abs(rng.normal(0.03, 0.03))
        lam = np.exp(-26.0 + TRUE_PERFORMANCE_EFFECT * (1.0 + quality)
                     + 0.012 * (filed - 1985))
        cite_forward = int(rng.poisson(lam))
        # Only earlier patents are citable (keeps the citation graph acyclic
        # and the grant-year deltas nonnegative).
        citable = [m for m in numbers
                   if patents[m].filed_year <= filed and patents[m].granted_year <= granted]
        n_backward = int(rng.integers(2, 6)) if citable else 0
        cited = list(rng.choice(citable, size=min(n_backward, len(citable)),
                                replace=False)) if citable else []
        patents[number] = PatentRecord(
            patent_number=number,
            title=title,
            assignee=_ASSIGNEES[i % len(_ASSIGNEES)],
            filed_year=filed,
            granted_year=granted,
            cited_patents=[str(c) for c in cited],
            forward_citation_count=cite_forward,
        )
        numbers.append(number)

        n_tests = int(rng.integers(3, 9))
        base = 100.0 * np.exp(TRUE_IMPROVEMENT_RATE * (filed - 1985))
        comparisons = []
        for t in range(n_tests):
            control = base * float(rng.uniform(0.9, 1.1))
            ratio = 1.0 + quality + float(rng.normal(0.0, 0.005))
            comparisons.append(TrialComparison(
                patented_yield=round(control * ratio, 1),
                control_yield=round(control, 1),
                control_name=f"C{i:02d}{t}",
            ))
        trial_sets.append(PatentTrialSet(number, comparisons))

    annotated, _ = annotate_patents(patents.values())
    patents = {p.patent_number: p for p in annotated}

    field_tests: list[FieldTestRecord] = []
    varieties = {region: [f"FT{region[0]}{j}" for j in range(6)] for region in _REGIONS}
    varieties["North"][0] = "CTRL1"  # long-running control variety
    for year in range(1995, 2011):
        weather = {region: float(rng.uniform(0.8, 1.2)) for region in _REGIONS}
        for region in _REGIONS:
            for j, name in enumerate(varieties[region]):
                level = 140.0 * np.exp(0.02 * (year - 1995)) * (1.0 + 0.01 * j)
                field_tests.append(FieldTestRecord(
                    state="SYNTHETIC",
                    year=year,
                    region=region,
                    brand=_ASSIGNEES[j % len(_ASSIGNEES)],
                    hybrid=name,
                    yield_value=round(level * weather[region], 1),
                    moisture=round(float(rng.uniform(14.0, 22.0)), 1),
                ))
        for number in numbers[year - 1995::20]:
            p = patents[number]
            field_tests.append(FieldTestRecord(
                state="SYNTHETIC",
                year=year,
                region="North",
                brand=p.assignee,
                hybrid=p.variety_name or "",
                yield_value=round(140.0 * np.exp(0.02 * (year - 1995)), 1),
                moisture=16.0,
            ))

    return Dataset(patents=patents, trial_sets=trial_sets, field_tests=field_tests)


def write_synthetic_csvs(directory, seed: int = DEFAULT_SEED) -> dict[str, Path]:
    """Write the fixture in the raw ingestion formats (plus network files)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dataset = synthetic_dataset(seed)
    paths = {name: directory / f"{name}.csv"
             for name in ("patents", "trials", "fieldtests", "nodes", "edges")}

    write_csv(paths["patents"], PATENT_COLUMNS, (
        [p.patent_number, p.title, p.assignee, p.filed_year, p.granted_year,
         p.forward_citation_count, ";".join(p.cited_patents)]
        for p in dataset.patents.values()))
    write_csv(paths["trials"], TRIAL_COLUMNS, (
        [ts.patent_number, dataset.patents[ts.patent_number].variety_name,
         c.control_name, c.patented_yield, c.control_yield]
        for ts in dataset.trial_sets for c in ts.comparisons))
    write_csv(paths["fieldtests"], ILLINOIS_COLUMNS, (
        [t.year, t.region, t.brand, t.hybrid, t.yield_value, t.moisture]
        for t in dataset.field_tests))
    write_csv(paths["nodes"], NODE_COLUMNS, (
        [p.patent_number, p.filed_year] for p in dataset.patents.values()))
    write_csv(paths["edges"], EDGE_COLUMNS, (
        [p.patent_number, cited] for p in dataset.patents.values()
        for cited in p.cited_patents))

    return paths


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "synthetic_fixture"
    for name, path in write_synthetic_csvs(target).items():
        print(f"{name}: {path}")

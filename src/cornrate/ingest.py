"""CSV ingestion and the dataset store writer: what only the ingest command runs.

The three loaders read the raw patent, trial-table and field-test CSVs
through core_data.read_table, each with the cyclic garbage collector
paused (core_data._without_gc). They never drop rows silently: every
input data row ends up as a record, as a row-indexed error, or in the
skip tally of the LoadReport. save_dataset writes a Dataset in the store
layout that core_data.load_dataset reads.

ingest_files is the ingest command's one library call: it loads the
three files, annotates the patent titles (title_parser), keeps the trial
sets of ingested patents, saves the store and returns the report.

Every other command reads a store and never executes this module, so its
source and its imports (datetime, tempfile, warnings) stay off their
start-up path. The public names here that core_data once defined are
still found there too (core_data.__getattr__).
"""

from __future__ import annotations

import datetime
import json
import os
import tempfile
import warnings
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import title_parser
from .core_data import (_FIELDTEST_HEADER, _PATENT_HEADER, _TRIAL_HEADER, ILLINOIS_COLUMNS,
                        PATENT_COLUMNS, SCHEMA_VERSION, TRIAL_COLUMNS, Dataset, DatasetError,
                        FieldTestRecord, FieldTestSchema, IngestError, Maturity,
                        PatentRecord, PatentTrialSet, TrialComparison, _fresh_defaults,
                        _parse_number, _without_gc, read_table, write_csv)


@_fresh_defaults
class LoadReport(NamedTuple):
    """Result of one ingestion call with full row accounting."""

    records: list
    row_errors: list[tuple[int, str]] = []
    skipped: int = 0

    def as_dict(self) -> dict:
        return {
            "records": len(self.records),
            "row_errors": [{"row": r, "error": m} for r, m in self.row_errors],
            "skipped": self.skipped,
        }


def _parse_yield(text: str) -> tuple[float, bool]:
    # Kentucky reports flag significance with a trailing asterisk ("190.3*").
    text = text.strip()
    significant = text.endswith("*")
    return _parse_number(text.rstrip("*")), significant


def _load(path, names: list[str], parse: Callable[..., object]) -> LoadReport:
    """The records parse makes of the named columns of an ingest CSV, and its row errors."""
    errors: list[tuple[int, str]] = []
    records = list(read_table(path, names, parse, row_errors=errors))
    return LoadReport(records, errors)


@_without_gc
def load_patents(path) -> LoadReport:
    """Load the patent CSV; variety_name/kind stay unset for the title parser."""
    seen: set[str] = set()

    def patent(number, title, assignee, filed_year, granted_year, forward_citations,
               cited_patents) -> PatentRecord:
        number = number.strip()
        if number in seen:
            raise IngestError(f"duplicate patent_number {number} in {path}")
        record = PatentRecord(
            patent_number=number,
            title=title.strip(),
            assignee=assignee.strip(),
            filed_year=int(filed_year),
            granted_year=int(granted_year),
            cited_patents=[c.strip() for c in cited_patents.split(";") if c.strip()],
            forward_citation_count=int(forward_citations),
        )
        record.validate()
        seen.add(number)
        return record

    return _load(path, PATENT_COLUMNS, patent)


def _illinois_row(state, year, region, brand, hybrid, yield_text, moisture) -> FieldTestRecord:
    yield_value, significant = _parse_yield(yield_text)
    record = FieldTestRecord(
        state=state,
        year=int(year),
        region=region.strip(),
        brand=brand.strip(),
        hybrid=hybrid.strip(),
        yield_value=yield_value,
        moisture=_parse_number(moisture),
        significant=significant,
    )
    record.validate()
    return record


def _kentucky_row(state, maturity, year, brand, hybrid, yield_text, moisture,
                  stand) -> FieldTestRecord:
    yield_value, significant = _parse_yield(yield_text)
    record = FieldTestRecord(
        state=state,
        year=int(year),
        region="STATE_AVG",
        brand=brand.strip(),
        hybrid=hybrid.strip(),
        yield_value=yield_value,
        moisture=_parse_number(moisture),
        maturity=Maturity(maturity.strip().lower()),
        stand=_parse_number(stand) if stand.strip() else None,
        significant=significant,
    )
    record.validate()
    return record


@_without_gc
def load_field_tests(path, schema: FieldTestSchema | str, state: str = "") -> LoadReport:
    """Load one state's field-test CSV in the Illinois- or Kentucky-like layout."""
    if schema == FieldTestSchema.ILLINOIS_LIKE:   # a str enum: equal to its value
        return _load(path, ILLINOIS_COLUMNS, partial(_illinois_row, state))
    if schema == FieldTestSchema.KENTUCKY_LIKE:
        return _load(path, ["Maturity", "Year", "Brand", "Hybrid", "Yield", "Moist", "Stand"],
                     partial(_kentucky_row, state))
    raise IngestError(f"unknown schema: {schema!r}")


def _trial_row(number, patented_variety, control, patented_yield,
               control_yield) -> tuple[str, Optional[TrialComparison]]:
    """(patent number, comparison), or (patent number, None) for a summary 'AVG' row."""
    control = control.strip()
    if control == "AVG":
        return number.strip(), None
    comparison = TrialComparison(
        patented_yield=_parse_number(patented_yield),
        control_yield=_parse_number(control_yield),
        control_name=control,
    )
    comparison.validate()
    return number.strip(), comparison


@_without_gc
def load_trial_sets(path) -> LoadReport:
    """Load per-patent trial comparisons; summary 'AVG' rows are skipped."""
    rows = _load(path, TRIAL_COLUMNS, _trial_row)
    groups: dict[str, list[TrialComparison]] = {}
    for number, comparison in rows.records:
        group = groups.setdefault(number, [])
        if comparison is not None:
            group.append(comparison)
    records = [PatentTrialSet(number, group) for number, group in groups.items() if group]
    rows.row_errors.extend((-1, f"no comparisons for patent {number}")
                           for number, group in groups.items() if not group)
    skipped = sum(comparison is None for _, comparison in rows.records)
    return LoadReport(records, rows.row_errors, skipped)


def infer_missing_year_average(summary_mean: float, known_year_means: list[float],
                               m: int) -> float:
    """Back out the one missing annual mean from an m-year summary mean.

    The summary mean is the arithmetic mean over all m years, so the
    missing year is m*summary - sum(known), the unique consistent value.
    """
    if m < 2:
        raise ValueError("summary must cover at least 2 years")
    if len(known_year_means) != m - 1:
        raise ValueError(f"expected {m - 1} known year means, got {len(known_year_means)}")
    inferred = m * summary_mean - sum(known_year_means)
    if inferred <= 0:
        warnings.warn(f"inferred nonpositive year mean {inferred:.4g}; check inputs")
    return inferred


# --- dataset store ---------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, Enum):
        return value.value
    # float() first: repr of a numpy float64 is "np.float64(98.3)" under numpy 2.
    return repr(float(value)) if isinstance(value, float) else str(value)


def save_dataset(dataset: Dataset, directory) -> None:
    """Write the dataset's three CSVs and its manifest into directory.

    All four are written to a temporary directory inside directory, then the
    old manifest is removed and each file moved over its old one, the manifest
    last: a failed write leaves the old store, a failed move leaves no manifest.

    A dataset that the store would load back changed, or not at all, is a
    DatasetError naming the patent, raised before anything is written. The
    store keys each patent by its number, joins cited numbers with ";" and
    drops empty ones, and reads an empty variety name as none. It loads a
    trial set only for a patent it holds, and a patent's trial rows as one
    set, which a set without comparisons does not appear in.
    """
    for key, p in dataset.patents.items():
        if key != p.patent_number:
            raise DatasetError(f"patent {p.patent_number!r}: held under the key {key!r}, and "
                               "the store keys each patent by its number")
        if "" in p.cited_patents or ";" in "".join(p.cited_patents):
            raise DatasetError(f"patent {p.patent_number!r}: a cited patent number is empty "
                               f"or holds ';', which the store cannot hold: {p.cited_patents!r}")
        if p.variety_name == "":
            raise DatasetError(f"patent {p.patent_number!r}: an empty variety_name, which the "
                               "store reads back as none")
    tested: set[str] = set()
    for ts in dataset.trial_sets:
        number = ts.patent_number
        if number not in dataset.patents:
            raise DatasetError(f"patent {number!r}: a trial set for a patent not in the "
                               "dataset, which the store cannot load")
        if not ts.comparisons:
            raise DatasetError(f"patent {number!r}: a trial set without comparisons, which "
                               "the store loads back as none")
        if number in tested:
            raise DatasetError(f"patent {number!r}: a second trial set, which the store "
                               "loads back joined with the first")
        tested.add(number)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory) as temporary:
        staging = Path(temporary)
        write_csv(staging / "patents.csv", _PATENT_HEADER, (
            [p.patent_number, p.title, p.assignee, p.filed_year, p.granted_year,
             p.forward_citation_count, ";".join(p.cited_patents), _fmt(p.variety_name),
             _fmt(p.kind)]
            for p in dataset.patents.values()))
        write_csv(staging / "trials.csv", _TRIAL_HEADER, (
            [ts.patent_number, c.control_name, _fmt(c.patented_yield), _fmt(c.control_yield),
             _fmt(c.patented_moisture), _fmt(c.control_moisture)]
            for ts in dataset.trial_sets for c in ts.comparisons))
        write_csv(staging / "fieldtests.csv", _FIELDTEST_HEADER, (
            [t.state, t.year, t.region, t.brand, t.hybrid, _fmt(t.yield_value),
             _fmt(t.moisture), _fmt(t.maturity), _fmt(t.stand), _fmt(bool(t.significant))]
            for t in dataset.field_tests))
        manifest = {"schema_version": SCHEMA_VERSION,
                    "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat()}
        (staging / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        (directory / "manifest.json").unlink(missing_ok=True)
        for name in ("patents.csv", "trials.csv", "fieldtests.csv", "manifest.json"):
            os.replace(staging / name, directory / name)


# --- the ingest command ----------------------------------------------------

def ingest_files(patents, trials, store, fieldtests=None,
                 schema: Optional[FieldTestSchema | str] = None, state: str = "",
                 prefix_table=None) -> dict:
    """Load the raw CSVs, annotate the titles, save the store and return the report.

    prefix_table is a title-pattern CSV (title_parser.PrefixTable.load) in
    place of the bundled one. Trial sets of patents not in the patent file
    are counted and dropped. The report holds the store directory, each
    file's LoadReport.as_dict() (fieldtests only when given) and the titles
    that need review.
    """
    patents_report = load_patents(patents)
    trials_report = load_trial_sets(trials)
    table = title_parser.PrefixTable.load(prefix_table) if prefix_table else None
    annotated, unmatched_titles = title_parser.annotate_patents(patents_report.records, table)

    field_reports = {}
    field_tests = []
    if fieldtests:
        if not schema:
            raise IngestError("--schema is required with --fieldtests")
        report = load_field_tests(fieldtests, schema, state=state)
        field_reports["fieldtests"] = report.as_dict()
        field_tests = report.records

    by_number = {p.patent_number: p for p in annotated}
    trial_sets = [ts for ts in trials_report.records if ts.patent_number in by_number]
    save_dataset(Dataset(patents=by_number, trial_sets=trial_sets, field_tests=field_tests),
                 store)
    return {
        "dataset_dir": str(store),
        "patents": patents_report.as_dict(),
        "trials": trials_report.as_dict(),
        "trial_sets_without_patent": len(trials_report.records) - len(trial_sets),
        "titles_needing_review": unmatched_titles,
        **field_reports,
    }

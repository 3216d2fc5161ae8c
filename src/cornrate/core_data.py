"""Domain types, CSV ingestion and the on-disk dataset store.

Three data families come in as CSV: granted patents, the head-to-head
trial tables transcribed from patent documents, and state field-test
rows. Ingestion never drops rows silently: every input data row ends up
either as a record, as a row-indexed error, or in the skip tally.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Optional

SCHEMA_VERSION = 1

from .constants import DEFAULT_CITATION_CUTOFF_YEAR


class IngestError(Exception):
    """File-level ingestion failure (missing file/column, duplicates)."""


class DatasetError(Exception):
    """Dataset store failure (version mismatch, corrupt manifest)."""


class PatentKind(str, Enum):
    HYBRID = "hybrid"
    INBRED = "inbred"
    OTHER = "other"


class Maturity(str, Enum):
    EARLY = "early"
    MEDIUM = "medium"
    LATE = "late"


class FieldTestSchema(str, Enum):
    ILLINOIS_LIKE = "illinois"
    KENTUCKY_LIKE = "kentucky"


def _finite(*values: Optional[float]) -> bool:
    """True when no value is NaN or infinite; None (an unset optional field) passes."""
    return all(math.isfinite(v) for v in values if v is not None)


@dataclass
class PatentRecord:
    patent_number: str
    title: str
    assignee: str
    filed_year: int
    granted_year: int
    cited_patents: list[str] = field(default_factory=list)
    forward_citation_count: int = 0
    variety_name: Optional[str] = None
    kind: Optional[PatentKind] = None

    def validate(self) -> None:
        if not self.patent_number:
            raise ValueError("empty patent_number")
        if self.filed_year > self.granted_year:
            raise ValueError("year order violated")
        if self.forward_citation_count < 0:
            raise ValueError("negative forward citation count")


@dataclass
class TrialComparison:
    patented_yield: float
    control_yield: float
    control_name: str
    patented_moisture: Optional[float] = None
    control_moisture: Optional[float] = None

    def validate(self) -> None:
        if not _finite(self.patented_yield, self.control_yield, self.patented_moisture,
                       self.control_moisture):
            raise ValueError("non-finite value")
        if self.patented_yield <= 0 or self.control_yield <= 0:
            raise ValueError("nonpositive yield")


@dataclass
class PatentTrialSet:
    patent_number: str
    comparisons: list[TrialComparison]

    @property
    def n_tests(self) -> int:
        return len(self.comparisons)

    def validate(self) -> None:
        if not self.comparisons:
            raise ValueError("no comparisons")
        for c in self.comparisons:
            c.validate()


@dataclass
class FieldTestRecord:
    state: str
    year: int
    region: str
    brand: str
    hybrid: str
    yield_value: float
    moisture: float
    maturity: Optional[Maturity] = None
    stand: Optional[float] = None
    significant: bool = False  # Kentucky trailing-asterisk marker

    def validate(self) -> None:
        if not _finite(self.yield_value, self.moisture, self.stand):
            raise ValueError("non-finite value")
        if self.yield_value <= 0:
            raise ValueError("nonpositive yield")
        if not 0 <= self.moisture <= 100:
            raise ValueError("moisture out of range")


@dataclass
class Dataset:
    patents: dict[str, PatentRecord] = field(default_factory=dict)
    trial_sets: list[PatentTrialSet] = field(default_factory=list)
    field_tests: list[FieldTestRecord] = field(default_factory=list)
    citation_cutoff_year: int = DEFAULT_CITATION_CUTOFF_YEAR

    def validate(self) -> None:
        for ts in self.trial_sets:
            if ts.patent_number not in self.patents:
                raise ValueError(f"trial set for unknown patent {ts.patent_number}")


@dataclass
class LoadReport:
    """Result of one ingestion call with full row accounting."""

    records: list
    row_errors: list[tuple[int, str]] = field(default_factory=list)
    skipped: int = 0

    @property
    def n_input_rows(self) -> int:
        return len(self.records) + len(self.row_errors) + self.skipped

    def as_dict(self) -> dict:
        return {
            "records": len(self.records),
            "row_errors": [{"row": r, "error": m} for r, m in self.row_errors],
            "skipped": self.skipped,
        }


def _parse_number(text: str) -> float:
    # Decimal comma accepted ("99,7" in the source snapshots).
    value = float(text.strip().replace(",", "."))
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text.strip()!r}")
    return value


def _parse_yield(text: str) -> tuple[float, bool]:
    # Kentucky reports flag significance with a trailing asterisk ("190.3*").
    text = text.strip()
    significant = text.endswith("*")
    return _parse_number(text.rstrip("*")), significant


# Raw ingestion layouts: the columns the loaders and CitationNetwork.from_files
# read, and the synthetic fixture writer emits.
PATENT_COLUMNS = ["patent_number", "title", "assignee", "filed_year",
                  "granted_year", "forward_citations", "cited_patents"]
TRIAL_COLUMNS = ["patent_number", "patented_variety", "control_variety",
                 "patented_yield", "control_yield"]
ILLINOIS_COLUMNS = ["Year", "Region", "Brand", "Hybrid", "Yield", "Moisture"]
NODE_COLUMNS = ["patent_number", "application_year"]
EDGE_COLUMNS = ["citing_patent", "cited_patent"]


def write_csv(path, header: list[str], rows: Iterable) -> None:
    """Write one header row and then the data rows as UTF-8 CSV."""
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _open_csv(path, reader=csv.DictReader) -> tuple:
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"missing file: {path}")
    # utf-8-sig drops a byte-order mark that would otherwise prefix the first column name.
    handle = path.open(newline="", encoding="utf-8-sig")
    return handle, reader(handle)


def _require_columns(fields: Optional[list[str]], names: Iterable[str], path) -> dict[str, str]:
    """Case-insensitive header lookup; returns wanted-name -> actual-name."""
    lookup = {f.strip().lower(): f for f in fields or []}
    mapping = {}
    for name in names:
        actual = lookup.get(name.lower())
        if actual is None:
            raise IngestError(f"missing required column '{name}' in {path}")
        mapping[name] = actual
    return mapping


def load_patents(path) -> LoadReport:
    """Load the patent CSV; variety_name/kind stay unset for the title parser."""
    handle, reader = _open_csv(path)
    with handle:
        cols = _require_columns(reader.fieldnames, PATENT_COLUMNS, path)
        records: list[PatentRecord] = []
        errors: list[tuple[int, str]] = []
        seen: set[str] = set()
        for i, row in enumerate(reader):
            number = (row[cols["patent_number"]] or "").strip()
            if number and number in seen:
                raise IngestError(f"duplicate patent_number {number} at row {i}")
            try:
                cited = [c.strip() for c in (row[cols["cited_patents"]] or "").split(";")
                         if c.strip()]
                rec = PatentRecord(
                    patent_number=number,
                    title=(row[cols["title"]] or "").strip(),
                    assignee=(row[cols["assignee"]] or "").strip(),
                    filed_year=int(row[cols["filed_year"]]),
                    granted_year=int(row[cols["granted_year"]]),
                    cited_patents=cited,
                    forward_citation_count=int(row[cols["forward_citations"]]),
                )
                rec.validate()
            except (ValueError, TypeError) as exc:
                errors.append((i, str(exc)))
                continue
            seen.add(number)
            records.append(rec)
    return LoadReport(records, errors)


_FIELD_TEST_COLUMNS = {
    FieldTestSchema.ILLINOIS_LIKE: ILLINOIS_COLUMNS,
    FieldTestSchema.KENTUCKY_LIKE: ["Maturity", "Year", "Brand", "Hybrid", "Yield", "Moist", "Stand"],
}


def load_field_tests(path, schema: FieldTestSchema | str, state: str = "") -> LoadReport:
    """Load one state's field-test CSV in the Illinois- or Kentucky-like layout."""
    try:
        schema = FieldTestSchema(schema)
    except ValueError:
        raise IngestError(f"unknown schema: {schema!r}") from None
    handle, reader = _open_csv(path)
    with handle:
        cols = _require_columns(reader.fieldnames, _FIELD_TEST_COLUMNS[schema], path)
        records: list[FieldTestRecord] = []
        errors: list[tuple[int, str]] = []
        for i, row in enumerate(reader):
            try:
                yield_value, significant = _parse_yield(row[cols["Yield"]])
                if schema is FieldTestSchema.ILLINOIS_LIKE:
                    rec = FieldTestRecord(
                        state=state,
                        year=int(row[cols["Year"]]),
                        region=(row[cols["Region"]] or "").strip(),
                        brand=(row[cols["Brand"]] or "").strip(),
                        hybrid=(row[cols["Hybrid"]] or "").strip(),
                        yield_value=yield_value,
                        moisture=_parse_number(row[cols["Moisture"]]),
                        significant=significant,
                    )
                else:
                    stand_text = (row[cols["Stand"]] or "").strip()
                    rec = FieldTestRecord(
                        state=state,
                        year=int(row[cols["Year"]]),
                        region="STATE_AVG",
                        brand=(row[cols["Brand"]] or "").strip(),
                        hybrid=(row[cols["Hybrid"]] or "").strip(),
                        yield_value=yield_value,
                        moisture=_parse_number(row[cols["Moist"]]),
                        maturity=Maturity((row[cols["Maturity"]] or "").strip().lower()),
                        stand=_parse_number(stand_text) if stand_text else None,
                        significant=significant,
                    )
                rec.validate()
            except (ValueError, TypeError) as exc:
                errors.append((i, str(exc)))
                continue
            records.append(rec)
    return LoadReport(records, errors)


def load_trial_sets(path) -> LoadReport:
    """Load per-patent trial comparisons; summary 'AVG' rows are skipped."""
    handle, reader = _open_csv(path)
    with handle:
        cols = _require_columns(reader.fieldnames, TRIAL_COLUMNS, path)
        groups: dict[str, list[TrialComparison]] = {}
        errors: list[tuple[int, str]] = []
        skipped = 0
        for i, row in enumerate(reader):
            number = (row[cols["patent_number"]] or "").strip()
            control = (row[cols["control_variety"]] or "").strip()
            if control == "AVG":
                skipped += 1
                groups.setdefault(number, [])
                continue
            try:
                comp = TrialComparison(
                    patented_yield=_parse_number(row[cols["patented_yield"]]),
                    control_yield=_parse_number(row[cols["control_yield"]]),
                    control_name=control,
                )
                comp.validate()
            except (ValueError, TypeError) as exc:
                errors.append((i, str(exc)))
                continue
            groups.setdefault(number, []).append(comp)
    records = []
    for number, comparisons in groups.items():
        if not comparisons:
            errors.append((-1, f"no comparisons for patent {number}"))
            continue
        records.append(PatentTrialSet(patent_number=number, comparisons=comparisons))
    return LoadReport(records, errors, skipped)


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

_PATENT_HEADER = PATENT_COLUMNS + ["variety_name", "kind"]
_TRIAL_HEADER = ["patent_number", "control_name", "patented_yield", "control_yield",
                 "patented_moisture", "control_moisture"]
_FIELDTEST_HEADER = ["state", "year", "region", "brand", "hybrid", "yield", "moisture",
                     "maturity", "stand", "significant"]


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
    """Write the dataset's three CSVs and then its manifest into directory.

    An existing manifest is removed first, so a rewrite that stops partway
    leaves a store that load_dataset rejects for having no manifest.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "manifest.json").unlink(missing_ok=True)
    write_csv(directory / "patents.csv", _PATENT_HEADER, (
        [p.patent_number, p.title, p.assignee, p.filed_year, p.granted_year,
         p.forward_citation_count, ";".join(p.cited_patents), _fmt(p.variety_name),
         _fmt(p.kind)]
        for p in dataset.patents.values()))
    write_csv(directory / "trials.csv", _TRIAL_HEADER, (
        [ts.patent_number, c.control_name, _fmt(c.patented_yield), _fmt(c.control_yield),
         _fmt(c.patented_moisture), _fmt(c.control_moisture)]
        for ts in dataset.trial_sets for c in ts.comparisons))
    write_csv(directory / "fieldtests.csv", _FIELDTEST_HEADER, (
        [t.state, t.year, t.region, t.brand, t.hybrid, _fmt(t.yield_value),
         _fmt(t.moisture), _fmt(t.maturity), _fmt(t.stand), _fmt(bool(t.significant))]
        for t in dataset.field_tests))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "citation_cutoff_year": int(dataset.citation_cutoff_year),   # json needs a Python int
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _read_store(path: Path, header: list[str], parse: Callable[[dict], object]) -> list:
    """Each data row of a store CSV, as a column -> value dict, passed through parse.

    A header other than the store layout's, a row with more or fewer fields
    than the header, or a value parse rejects (each parser also runs the
    record's validate()) is a DatasetError naming the file and line. Blank
    lines are skipped, as csv.DictReader does.
    """
    with path.open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        found = next(reader, [])
        if found != header:
            raise DatasetError(f"{path}: header {found} is not the store layout {header}")
        records = []
        try:
            for row in reader:
                if len(row) != len(header):
                    if not row:
                        continue
                    raise ValueError(f"expected {len(header)} fields, found {len(row)}")
                records.append(parse(dict(zip(header, row))))
        except ValueError as exc:
            raise DatasetError(f"{path}, line {reader.line_num}: {exc}") from None
    return records


def _patent_from_store(row: dict) -> PatentRecord:
    record = PatentRecord(
        patent_number=row["patent_number"],
        title=row["title"],
        assignee=row["assignee"],
        filed_year=int(row["filed_year"]),
        granted_year=int(row["granted_year"]),
        cited_patents=[c for c in row["cited_patents"].split(";") if c],
        forward_citation_count=int(row["forward_citations"]),
        variety_name=row["variety_name"] or None,
        kind=PatentKind(row["kind"]) if row["kind"] else None,
    )
    record.validate()
    return record


def _trial_from_store(row: dict) -> tuple[str, TrialComparison]:
    comparison = TrialComparison(
        patented_yield=float(row["patented_yield"]),
        control_yield=float(row["control_yield"]),
        control_name=row["control_name"],
        patented_moisture=float(row["patented_moisture"]) if row["patented_moisture"] else None,
        control_moisture=float(row["control_moisture"]) if row["control_moisture"] else None,
    )
    comparison.validate()
    return row["patent_number"], comparison


def _field_test_from_store(row: dict) -> FieldTestRecord:
    record = FieldTestRecord(
        state=row["state"],
        year=int(row["year"]),
        region=row["region"],
        brand=row["brand"],
        hybrid=row["hybrid"],
        yield_value=float(row["yield"]),
        moisture=float(row["moisture"]),
        maturity=Maturity(row["maturity"]) if row["maturity"] else None,
        stand=float(row["stand"]) if row["stand"] else None,
        significant=row["significant"] == "1",
    )
    record.validate()
    return record


def load_dataset(directory) -> Dataset:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise DatasetError(f"no manifest in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError
        raise DatasetError(f"corrupt manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DatasetError(f"corrupt manifest {manifest_path}: top level must be a JSON object")
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise DatasetError(
            f"schema version mismatch: found {manifest.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}")
    cutoff = manifest.get("citation_cutoff_year")
    if type(cutoff) is not int:   # bool is an int subclass, and not a year
        raise DatasetError(f"corrupt manifest {manifest_path}: citation_cutoff_year "
                           f"must be an integer, found {cutoff!r}")

    patents = {rec.patent_number: rec for rec in
               _read_store(directory / "patents.csv", _PATENT_HEADER, _patent_from_store)}
    groups: dict[str, list[TrialComparison]] = {}
    for number, comparison in _read_store(directory / "trials.csv", _TRIAL_HEADER,
                                          _trial_from_store):
        groups.setdefault(number, []).append(comparison)
    trial_sets = [PatentTrialSet(n, comparisons) for n, comparisons in groups.items()]
    field_tests = _read_store(directory / "fieldtests.csv", _FIELDTEST_HEADER,
                              _field_test_from_store)

    dataset = Dataset(
        patents=patents,
        trial_sets=trial_sets,
        field_tests=field_tests,
        citation_cutoff_year=cutoff,
    )
    dataset.validate()
    return dataset

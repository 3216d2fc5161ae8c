"""Domain types, CSV ingestion and the on-disk dataset store.

Three data families come in as CSV: granted patents, the head-to-head
trial tables transcribed from patent documents, and state field-test
rows. Ingestion never drops rows silently: every input data row ends up
either as a record, as a row-indexed error, or in the skip tally.

The records are typing.NamedTuple classes: immutable, so a changed
record is a copy (_replace), and cheap to import and build. Their row
rules (_check_patent, _check_comparison, _check_field_test) are each
defined once, for validate() (which the ingest loaders run) and for
load_dataset.

Every CSV file and the run configuration are decoded by read_text (the
network's integer path reads the bytes of read_bytes instead). Every
CSV but a store file is split by read_table, which passes each row's
fields to one parse function; load_dataset reads each store file in one
loop of its own. Store, network, series and prefix-table files stop at
the first bad row; the ingest loaders record each bad row as a row
error and read on. The three ingest loaders and load_dataset run with
the cyclic garbage collector paused (_without_gc).

CornrateError is the base of every cornrate error and carries the CLI's
exit code. The dataset views at the end drop a run's excluded patents,
select the K1/K2 domain and describe a dataset for the report command.
"""

from __future__ import annotations

import codecs
import csv
import datetime
import gc
import io
import json
import math
import operator
import os
import tempfile
import warnings
from collections import Counter
from enum import Enum
from functools import partial, wraps
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional

SCHEMA_VERSION = 1


class CornrateError(Exception):
    """A failure the CLI reports with the class's exit_code.

    3 is a data or precondition error; IngestError and DatasetError (bad
    input, 2) and regression.RegressionError (numeric failure, 4) set their own.
    """

    exit_code = 3


class IngestError(CornrateError):
    """File-level ingestion failure (missing file/column, duplicates)."""

    exit_code = 2


class DatasetError(CornrateError):
    """Dataset store failure (version mismatch, corrupt manifest)."""

    exit_code = 2


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


def _fresh_defaults(record: type) -> type:
    """Give a NamedTuple class a new empty list or dict for each field whose
    default is one, in every instance that leaves the field out.

    A NamedTuple default is evaluated once, so without this every such
    instance would share one container.
    """
    fresh = [(record._fields.index(name), name, type(default))
             for name, default in record._field_defaults.items() if type(default) in (list, dict)]
    make = record.__new__

    @wraps(make)
    def __new__(cls, *args, **kwargs):
        for index, name, container in fresh:
            if index >= len(args) and name not in kwargs:
                kwargs[name] = container()
        return make(cls, *args, **kwargs)

    record.__new__ = staticmethod(__new__)
    return record


# The row rules of the three record types, each defined once: the records'
# validate(), which the ingest loaders run on each record, and load_dataset
# call them. A broken rule is a ValueError naming it. math.isfinite rejects
# NaN and both infinities; an unset optional value (None) passes.

def _check_patent(number: str, filed_year: int, granted_year: int,
                  forward_citation_count: int) -> None:
    if not number:
        raise ValueError("empty patent_number")
    if filed_year > granted_year:
        raise ValueError("year order violated")
    if forward_citation_count < 0:
        raise ValueError("negative forward citation count")


def _check_comparison(patented_yield: float, control_yield: float,
                      patented_moisture: Optional[float],
                      control_moisture: Optional[float]) -> None:
    if not (math.isfinite(patented_yield) and math.isfinite(control_yield)
            and (patented_moisture is None or math.isfinite(patented_moisture))
            and (control_moisture is None or math.isfinite(control_moisture))):
        raise ValueError("non-finite value")
    if patented_yield <= 0 or control_yield <= 0:
        raise ValueError("nonpositive yield")


def _check_field_test(yield_value: float, moisture: float, stand: Optional[float]) -> None:
    if not (math.isfinite(yield_value) and math.isfinite(moisture)
            and (stand is None or math.isfinite(stand))):
        raise ValueError("non-finite value")
    if yield_value <= 0:
        raise ValueError("nonpositive yield")
    if not 0 <= moisture <= 100:
        raise ValueError("moisture out of range")


@_fresh_defaults
class PatentRecord(NamedTuple):
    patent_number: str
    title: str
    assignee: str
    filed_year: int
    granted_year: int
    cited_patents: list[str] = []
    forward_citation_count: int = 0
    variety_name: Optional[str] = None
    kind: Optional[PatentKind] = None

    def validate(self) -> None:
        _check_patent(self.patent_number, self.filed_year, self.granted_year,
                      self.forward_citation_count)


class TrialComparison(NamedTuple):
    patented_yield: float
    control_yield: float
    control_name: str
    patented_moisture: Optional[float] = None
    control_moisture: Optional[float] = None

    def validate(self) -> None:
        _check_comparison(self.patented_yield, self.control_yield, self.patented_moisture,
                          self.control_moisture)


class PatentTrialSet(NamedTuple):
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


class FieldTestRecord(NamedTuple):
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
        _check_field_test(self.yield_value, self.moisture, self.stand)


@_fresh_defaults
class Dataset(NamedTuple):
    patents: dict[str, PatentRecord] = {}
    trial_sets: list[PatentTrialSet] = []
    field_tests: list[FieldTestRecord] = []


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


def read_bytes(path, error: type[Exception] = IngestError) -> bytes:
    """The bytes of a file, a leading UTF-8 byte-order mark dropped; a
    missing file is an error naming it."""
    path = Path(path)
    if not path.is_file():
        raise error(f"missing file: {path}")
    data = path.read_bytes()
    return data[len(codecs.BOM_UTF8):] if data.startswith(codecs.BOM_UTF8) else data


def read_text(path, error: type[Exception] = IngestError) -> str:
    """The text of a UTF-8 file, a leading byte-order mark dropped.

    A missing file, or a byte that is not UTF-8, is an error naming the file
    (and the line of the bad byte).
    """
    try:
        return read_bytes(path, error).decode("utf-8")
    except UnicodeDecodeError as exc:
        # exc.start counts from after a byte-order mark, as exc.object does.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"{Path(path)}, line {line}: {exc}") from None


def _column_positions(header: list[str], names: list[str], path) -> list[int]:
    """Index in header of each named column, under the ingest header rules.

    Names match case-insensitively and ignoring surrounding spaces, and a
    missing one is an IngestError; a repeated column name reads its last
    column.
    """
    position = {field.strip().lower(): k for k, field in enumerate(header)}
    for name in names:
        if name.lower() not in position:
            raise IngestError(f"missing required column '{name}' in {path}")
    return [position[name.lower()] for name in names]


def _check_width(row: list[str], width: int) -> None:
    """A ValueError for a row of other than width fields; a blank row (no fields) passes,
    as every CSV reader here skips it."""
    if row and len(row) != width:
        raise ValueError(f"expected {width} fields, found {len(row)}")


def read_table(path, columns: Callable[[list[str]], Iterable[int]],
               parse: Callable[..., object], error: type[Exception] = IngestError,
               row_errors: Optional[list[tuple[int, str]]] = None) -> Iterator:
    """Yield parse(*fields) for each data row of a CSV file, in file order.

    columns(header) gives the positions of the two or more fields passed to
    parse, or raises for a header it rejects. Blank lines are skipped. A row
    of the wrong width, or a ValueError from parse, is an error of class
    error naming the file and line; given a row_errors list, it is appended
    there as (index, message) instead, the index counting data rows from 0
    without blank lines, and reading goes on. A read_text failure, or text
    the csv module cannot split (a NUL byte before Python 3.11, a quoted
    field over its size limit), is a DatasetError for a store file, else an
    IngestError. Rows are parsed as they are consumed, so the rows of a
    large file are never all held at once.
    """
    unreadable = DatasetError if error is DatasetError else IngestError
    reader = csv.reader(io.StringIO(read_text(path, unreadable), newline=""))
    try:
        header = next(reader, [])
        pick = operator.itemgetter(*columns(header))
        width = len(header)
        for index, row in enumerate(row for row in reader if row):
            try:
                _check_width(row, width)
                record = parse(*pick(row))
            except ValueError as exc:
                if row_errors is None:
                    raise
                row_errors.append((index, str(exc)))
            else:
                yield record
    except ValueError as exc:
        raise error(f"{path}, line {reader.line_num}: {exc}") from None
    except csv.Error as exc:
        raise unreadable(f"{path}, line {reader.line_num}: {exc}") from None


def _without_gc(load: Callable) -> Callable:
    """load, run with the cyclic collector paused and then restored, on return
    or raise. The records a loader builds hold no reference cycles, so the
    collector would only walk the growing heap again and again."""
    @wraps(load)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return load(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()
    return paused


def _load(path, names: list[str], parse: Callable[..., object]) -> LoadReport:
    """The records parse makes of the named columns of an ingest CSV, and its row errors."""
    errors: list[tuple[int, str]] = []
    records = list(read_table(path, lambda header: _column_positions(header, names, path),
                              parse, row_errors=errors))
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


def _store_reader(path: Path, layout: list[str]):
    """A csv reader over a store file, past its header, which must be the store layout."""
    reader = csv.reader(io.StringIO(read_text(path, DatasetError), newline=""))
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise DatasetError(f"{path}, line {reader.line_num}: {exc}") from None
    if header != layout:
        raise DatasetError(f"{path}: header {header} is not the store layout {layout}")
    return reader


@_without_gc
def load_dataset(directory) -> Dataset:
    """The dataset in a store directory.

    Each store file is read in one pass that parses and checks every row
    under the record rules (_check_patent, _check_comparison,
    _check_field_test). A row of the wrong width, a value that does not
    parse or breaks a rule, a repeated patent, or a trial row for a patent
    not in patents.csv is a DatasetError naming the file and line; so is a
    header other than the store layout's, naming the file.
    """
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

    patents: dict[str, PatentRecord] = {}
    groups: dict[str, list[TrialComparison]] = {}
    field_tests: list[FieldTestRecord] = []
    try:
        # Values are parsed in column order and then checked, so a row with
        # several faults reports its first bad value.
        path, width = directory / "patents.csv", len(_PATENT_HEADER)
        reader = _store_reader(path, _PATENT_HEADER)
        for row in reader:
            if len(row) != width:
                _check_width(row, width)
                continue
            number, title, assignee, filed, granted, forward, cited, variety, kind = row
            if number in patents:
                raise ValueError(f"duplicate patent_number {number}")
            filed, granted, forward = int(filed), int(granted), int(forward)
            kind = PatentKind(kind) if kind else None
            _check_patent(number, filed, granted, forward)
            patents[number] = PatentRecord._make((
                number, title, assignee, filed, granted, [c for c in cited.split(";") if c],
                forward, variety or None, kind))

        path, width = directory / "trials.csv", len(_TRIAL_HEADER)
        reader = _store_reader(path, _TRIAL_HEADER)
        for row in reader:
            if len(row) != width:
                _check_width(row, width)
                continue
            number, control_name, patented, control, patented_moisture, control_moisture = row
            if number not in patents:
                raise ValueError(f"trial set for unknown patent {number}")
            patented, control = float(patented), float(control)
            patented_moisture = float(patented_moisture) if patented_moisture else None
            control_moisture = float(control_moisture) if control_moisture else None
            _check_comparison(patented, control, patented_moisture, control_moisture)
            groups.setdefault(number, []).append(TrialComparison._make((
                patented, control, control_name, patented_moisture, control_moisture)))

        path, width = directory / "fieldtests.csv", len(_FIELDTEST_HEADER)
        reader = _store_reader(path, _FIELDTEST_HEADER)
        for row in reader:
            if len(row) != width:
                _check_width(row, width)
                continue
            state, year, region, brand, hybrid, yield_value, moisture, maturity, stand, \
                significant = row
            year, yield_value, moisture = int(year), float(yield_value), float(moisture)
            maturity = Maturity(maturity) if maturity else None
            stand = float(stand) if stand else None
            _check_field_test(yield_value, moisture, stand)
            field_tests.append(FieldTestRecord._make((
                state, year, region, brand, hybrid, yield_value, moisture, maturity, stand,
                significant == "1")))
    except (ValueError, csv.Error) as exc:
        raise DatasetError(f"{path}, line {reader.line_num}: {exc}") from None
    return Dataset(patents, [PatentTrialSet(n, c) for n, c in groups.items()], field_tests)


# --- dataset views ---------------------------------------------------------

_KINDS = {"hybrid": {PatentKind.HYBRID}, "inbred": {PatentKind.INBRED},
          "both": {PatentKind.HYBRID, PatentKind.INBRED}}


def without_patents(dataset: Dataset, numbers: Iterable[str]) -> Dataset:
    """A new dataset without the numbered patents and their trial sets; the field
    tests are kept, and numbers of no patent in the dataset are ignored."""
    dropped = set(numbers)
    return Dataset(
        patents={n: p for n, p in dataset.patents.items() if n not in dropped},
        trial_sets=[ts for ts in dataset.trial_sets if ts.patent_number not in dropped],
        field_tests=list(dataset.field_tests))


def select_domain(dataset: Dataset, kind: str, filed_until: Optional[int] = None,
                  excluded: Collection[str] = ()) -> list[PatentRecord]:
    """The patents of one kind ("hybrid", "inbred" or "both") filed up to
    filed_until (None: no bound) and not excluded, in store order; the
    domain of K1 and K2. An empty selection and a selection that the
    exclusions empty are ValueErrors with different messages.
    """
    selected = [p for p in dataset.patents.values() if p.kind in _KINDS[kind]
                and (filed_until is None or p.filed_year <= filed_until)]
    if not selected:
        raise ValueError("no patents match the kind/filed-until selection")
    domain = [p for p in selected if p.patent_number not in excluded]
    if not domain:
        raise ValueError("the exclusion list excludes every patent of the domain")
    return domain


# The tables of describe_dataset: name -> the columns of each row.
REPORT_TABLES = {
    "patents_per_year": ("filed_year", "kind", "count"),
    "assignee_shares": ("assignee", "count", "share"),
    "backward_citations": ("filed_year", "n_patents", "mean", "std"),
}


def _mean_std(values: list[int]) -> tuple[float, float]:
    """Mean and population standard deviation."""
    mean = sum(values) / len(values)
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def describe_dataset(dataset: Dataset) -> dict:
    """The dataset's sizes and its REPORT_TABLES, each a list of rows keyed by column.

    Patents are counted per (filed year, kind), and per assignee with the
    assignee's share of all patents (most patents first, ties by name).
    Backward citations are the mean and standard deviation, per filed
    year, of the number of patents each patent cites.
    """
    patents = dataset.patents.values()
    per_year = Counter((p.filed_year, p.kind.value if p.kind else "unknown") for p in patents)
    per_assignee = Counter(p.assignee for p in patents)
    cited: dict[int, list[int]] = {}
    for p in patents:
        cited.setdefault(p.filed_year, []).append(len(p.cited_patents))
    rows = {
        "patents_per_year": ((*key, n) for key, n in sorted(per_year.items())),
        "assignee_shares": ((a, n, n / len(patents)) for a, n in
                            sorted(per_assignee.items(), key=lambda kv: (-kv[1], kv[0]))),
        "backward_citations": ((year, len(v), *_mean_std(v)) for year, v in sorted(cited.items())),
    }
    return {"n_patents": len(patents), "n_trial_sets": len(dataset.trial_sets),
            "n_field_tests": len(dataset.field_tests),
            **{name: [dict(zip(REPORT_TABLES[name], row)) for row in rows[name]]
               for name in REPORT_TABLES}}

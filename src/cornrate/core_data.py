"""Domain types, the CSV primitives and the on-disk dataset store.

Three data families come in as CSV: granted patents, the head-to-head
trial tables transcribed from patent documents, and state field-test
rows. cornrate.ingest loads them into the records defined here and
writes the store (save_dataset); load_dataset reads it back. Every
command but ingest starts from a store, so only ingest executes that
module. The public names it took from here (LoadReport, load_patents,
load_trial_sets, load_field_tests, save_dataset and
infer_missing_year_average) are still found here, through the module
__getattr__ at the end.

The records are typing.NamedTuple classes: immutable, so a changed
record is a copy (_replace), and cheap to import and build. Their row
rules (_check_patent, _check_comparison, _check_field_test) are each
defined once, for validate() (which the ingest loaders run) and for
load_dataset.

Every CSV file is opened by _csv_reader, which decodes and splits it as
its rows are consumed and names the file and line of a fault (the
network's integer path reads read_bytes instead; read_text decodes the
run configuration). read_table passes the named fields of each row of a
CSV but a store file to one parse function; load_dataset reads each
store file, past _store_reader's layout check, in one loop of its own.
Store, network, series and prefix-table files stop at the first bad row;
the ingest loaders record each bad row as a row error and read on.
load_dataset, the ingest loaders and cli.main run with the cyclic
garbage collector paused (_without_gc).

CornrateError is the base of every cornrate error and carries the CLI's
exit code. The dataset views drop a run's excluded patents, select the
K1/K2 domain and describe a dataset for the report command.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import operator
from collections import Counter
from contextlib import contextmanager
from enum import Enum
from functools import wraps
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


def _parse_number(text: str) -> float:
    # Decimal comma accepted ("99,7" in the source snapshots).
    value = float(text.strip().replace(",", "."))
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text.strip()!r}")
    return value


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
    """The bytes of a file, a byte-order mark kept; a missing file is an error naming it."""
    path = Path(path)
    if not path.is_file():
        raise error(f"missing file: {path}")
    return path.read_bytes()


def read_text(path, error: type[Exception] = IngestError) -> str:
    """The text of a UTF-8 file, a leading byte-order mark dropped.

    A missing file, or a byte that is not UTF-8, is an error naming the file
    (and the line of the bad byte).
    """
    try:
        return read_bytes(path, error).decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start counts from after a byte-order mark, as exc.object does.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"{Path(path)}, line {line}: {exc}") from None


@contextmanager
def _csv_reader(path, error: type[Exception]) -> Iterator[Iterator[list[str]]]:
    """A csv reader over a UTF-8 file (a byte-order mark dropped) that reads rows as
    they are consumed. A missing file, a byte that is not UTF-8 (by read_text), and a
    csv.Error or ValueError in the with block are an error naming the file (and line)."""
    if not Path(path).is_file():
        raise error(f"missing file: {Path(path)}")
    with open(path, encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f)
        try:
            yield reader
        except UnicodeDecodeError:
            read_text(path, error)
            raise
        except (csv.Error, ValueError) as exc:
            raise error(f"{path}, line {reader.line_num}: {exc}") from None


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


def read_table(path, names: list[str], parse: Callable[..., object],
               error: type[Exception] = IngestError,
               row_errors: Optional[list[tuple[int, str]]] = None) -> Iterator:
    """Yield parse(*fields) for each data row of a CSV file, in file order.

    The named columns, two or more, found under the ingest header rules
    (_column_positions), give the fields passed to parse. Blank lines are
    skipped. A row of the wrong width, or a ValueError from parse, is an
    error of class error naming the file and line; given a row_errors list,
    it is appended there as (index, message) instead, the index counting
    data rows from 0 without blank lines, and reading goes on. The file is
    read by _csv_reader, whose errors are IngestErrors.
    """
    with _csv_reader(path, IngestError) as reader:
        header = next(reader, [])
        pick = operator.itemgetter(*_column_positions(header, names, path))
        width = len(header)
        for index, row in enumerate(row for row in reader if row):
            try:
                _check_width(row, width)
                record = parse(*pick(row))
            except ValueError as exc:
                if row_errors is None:
                    raise error(f"{path}, line {reader.line_num}: {exc}") from None
                row_errors.append((index, str(exc)))
            else:
                yield record


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


# --- dataset store ---------------------------------------------------------

_PATENT_HEADER = PATENT_COLUMNS + ["variety_name", "kind"]
_TRIAL_HEADER = ["patent_number", "control_name", "patented_yield", "control_yield",
                 "patented_moisture", "control_moisture"]
_FIELDTEST_HEADER = ["state", "year", "region", "brand", "hybrid", "yield", "moisture",
                     "maturity", "stand", "significant"]


@contextmanager
def _store_reader(path: Path, layout: list[str]) -> Iterator[Iterator[list[str]]]:
    """_csv_reader over a store file, past its header, which must be the store layout."""
    with _csv_reader(path, DatasetError) as reader:
        if (header := next(reader, [])) != layout:
            raise DatasetError(f"{path}: header {header} is not the store layout {layout}")
        yield reader


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
    # Values are parsed in column order and then checked, so a row with
    # several faults reports its first bad value.
    width = len(_PATENT_HEADER)
    with _store_reader(directory / "patents.csv", _PATENT_HEADER) as reader:
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

    width = len(_TRIAL_HEADER)
    with _store_reader(directory / "trials.csv", _TRIAL_HEADER) as reader:
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

    width = len(_FIELDTEST_HEADER)
    with _store_reader(directory / "fieldtests.csv", _FIELDTEST_HEADER) as reader:
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


# The public names that moved to cornrate.ingest, which this module does not import.
_INGEST_NAMES = {"LoadReport", "load_patents", "load_trial_sets", "load_field_tests",
                 "save_dataset", "infer_missing_year_average"}


def __getattr__(name: str):
    if name in _INGEST_NAMES:
        from . import ingest
        return getattr(ingest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Variety-name extraction from patent titles.

Patent titles follow dozens of boilerplate templates ("Inbred corn line
NP2073", "Hybrid maize variety X13088", ...). A user-editable pattern
table strips the boilerplate; whatever remains is the variety
designation. Titles no pattern applies to are flagged for manual review,
never guessed at.

Patent records are immutable, so annotate_patents returns annotated
copies (PatentRecord._replace) along with the numbers needing review.
"""

from __future__ import annotations

import re
from enum import Enum
from importlib import resources
from typing import Iterable, NamedTuple, Optional

from .core_data import IngestError, PatentKind, PatentRecord, _column_positions, read_table


class PatternPosition(str, Enum):
    PREFIX = "prefix"
    SUFFIX = "suffix"
    INFIX = "infix"


class PrefixEntry(NamedTuple):
    pattern: str
    position: PatternPosition


class PrefixTable:
    """Ordered pattern list; longest pattern wins, ties broken by file order.

    load rejects a table without patterns and an empty pattern.
    """

    def __init__(self, entries: Iterable[PrefixEntry]):
        # Stable sort: equal-length patterns keep their input order.
        self.entries = sorted(entries, key=lambda e: -len(e.pattern))

    @classmethod
    def load(cls, path) -> "PrefixTable":
        """The table in a CSV file with pattern and position columns (read_table).

        A file without pattern rows, or a row with an empty pattern, is an
        IngestError naming it.
        """
        entries = list(read_table(
            path, lambda header: _column_positions(header, ["pattern", "position"], path),
            _prefix_entry))
        if not entries:
            raise IngestError(f"no pattern rows in prefix table {path}")
        return cls(entries)

    @classmethod
    def default(cls) -> "PrefixTable":
        ref = resources.files("cornrate.data") / "title_prefixes.csv"
        with resources.as_file(ref) as path:
            return cls.load(path)


def _prefix_entry(pattern: str, position: str) -> PrefixEntry:
    if not pattern:
        raise ValueError("empty pattern")
    return PrefixEntry(pattern, PatternPosition(position.strip().lower()))


def _matches(title: str, entry: PrefixEntry) -> bool:
    if entry.position is PatternPosition.PREFIX:
        return title.startswith(entry.pattern)
    if entry.position is PatternPosition.SUFFIX:
        return title.endswith(entry.pattern)
    return entry.pattern in title


def extract_variety_name(title: str, table: Optional[PrefixTable] = None) -> tuple[str, bool]:
    """Strip the longest applicable title pattern; single pass.

    Returns (variety, matched). With matched False the trimmed title is
    returned unchanged so the caller can queue it for manual review.
    """
    if not title:
        raise ValueError("empty title")
    if table is None:
        table = PrefixTable.default()
    for entry in table.entries:
        if _matches(title, entry):
            return title.replace(entry.pattern, "").strip(), True
    return title.strip(), False


_HYBRID_PHRASES = ("hybrid corn", "hybrid maize", "maize variety", "corn variety")
_LINE_WORD = re.compile(r"\bline\b", re.IGNORECASE)


def classify_patent_kind(title: str) -> PatentKind:
    """Inbred wins over hybrid: "Inbred corn line X" must classify inbred."""
    if not title:
        raise ValueError("empty title")
    lowered = title.lower()
    if "inbred" in lowered or _LINE_WORD.search(title):
        return PatentKind.INBRED
    if any(phrase in lowered for phrase in _HYBRID_PHRASES):
        return PatentKind.HYBRID
    return PatentKind.OTHER


def annotate_patents(patents: Iterable[PatentRecord],
                     table: Optional[PrefixTable] = None) -> tuple[list[PatentRecord], list[str]]:
    """Copies of the patents with variety_name and kind filled, in input order,
    and the numbers of the patents whose titles need review."""
    if table is None:
        table = PrefixTable.default()
    annotated, unmatched = [], []
    for patent in patents:
        variety, matched = extract_variety_name(patent.title, table)
        # A title that is only a pattern names no variety.
        annotated.append(patent._replace(variety_name=variety or None,
                                         kind=classify_patent_kind(patent.title)))
        if not matched:
            unmatched.append(patent.patent_number)
    return annotated, unmatched


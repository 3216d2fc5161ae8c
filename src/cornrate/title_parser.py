"""Variety-name extraction from patent titles and variety matching.

Patent titles follow dozens of boilerplate templates ("Inbred corn line
NP2073", "Hybrid maize variety X13088", ...). A user-editable pattern
table strips the boilerplate; whatever remains is the variety
designation. Titles no pattern applies to are flagged for manual review,
never guessed at.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional

from .core_data import FieldTestRecord, PatentKind, PatentRecord


class PatternPosition(str, Enum):
    PREFIX = "prefix"
    SUFFIX = "suffix"
    INFIX = "infix"


@dataclass(frozen=True)
class PrefixEntry:
    pattern: str
    position: PatternPosition
    note: str = ""


class PrefixTable:
    """Ordered pattern list; longest pattern wins, ties broken by file order."""

    def __init__(self, entries: Iterable[PrefixEntry]):
        entries = list(entries)
        if not entries:
            raise ValueError("empty prefix table")
        if any(not e.pattern for e in entries):
            raise ValueError("empty pattern in prefix table")
        # Stable sort: equal-length patterns keep their input order.
        self.entries = sorted(entries, key=lambda e: -len(e.pattern))

    @classmethod
    def load(cls, path) -> "PrefixTable":
        entries = []
        with Path(path).open(newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                entries.append(PrefixEntry(
                    pattern=row["pattern"],
                    position=PatternPosition(row["position"].strip().lower()),
                    note=(row.get("note") or "").strip(),
                ))
        return cls(entries)

    @classmethod
    def default(cls) -> "PrefixTable":
        ref = resources.files("cornrate.data") / "title_prefixes.csv"
        with resources.as_file(ref) as path:
            return cls.load(path)


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
                     table: Optional[PrefixTable] = None) -> list[str]:
    """Fill variety_name and kind in place; returns numbers needing review."""
    if table is None:
        table = PrefixTable.default()
    unmatched = []
    for patent in patents:
        variety, matched = extract_variety_name(patent.title, table)
        patent.variety_name = variety or None   # a title that is only a pattern names no variety
        patent.kind = classify_patent_kind(patent.title)
        if not matched:
            unmatched.append(patent.patent_number)
    return unmatched


def normalize_variety(name: str) -> str:
    return name.upper().replace(" ", "").replace("-", "")


@dataclass
class MatchReport:
    """Exact variety matches plus the gap list of never-matched patents."""

    matches: dict[str, list[int]] = field(default_factory=dict)  # patent -> row indices
    unmatched_patents: list[str] = field(default_factory=list)

    @property
    def n_matched(self) -> int:
        return len(self.matches)


def match_patented_varieties(patents: Iterable[PatentRecord],
                             tests: Iterable[FieldTestRecord]) -> MatchReport:
    """Link patented varieties to field-test rows by normalized exact name.

    Naming-scheme gaps (e.g. patented CHxxxxxx vs tested DKxxxx) surface
    in unmatched_patents rather than disappearing.
    """
    by_name: dict[str, list[int]] = {}
    for i, test in enumerate(tests):
        by_name.setdefault(normalize_variety(test.hybrid), []).append(i)
    report = MatchReport()
    for patent in patents:
        if not patent.variety_name:
            report.unmatched_patents.append(patent.patent_number)
            continue
        rows = by_name.get(normalize_variety(patent.variety_name))
        if rows:
            report.matches[patent.patent_number] = list(rows)
        else:
            report.unmatched_patents.append(patent.patent_number)
    return report

"""Relabel every patent number of a cornrate input directory, and shuffle its rows.

Usage, from the repository root:

    python tests/relabel.py SRC_DIR OUT_DIR [--prefix US] [--seed N]

SRC_DIR holds patents.csv, trials.csv, fieldtests.csv, nodes.csv and
edges.csv. Each patent number becomes PREFIX + number: the patent_number
and every ;-separated cited_patents entry of patents.csv, the
patent_number of trials.csv and nodes.csv, and both columns of
edges.csv. An empty field stays empty. relabel() also takes a mapping,
applied to each number before the prefix; a number it does not hold stays
as it is, so a permutation of any set of numbers relabels bijectively.
With --seed, the data rows of all five files are shuffled by
random.Random(seed). Relabelled ids that are not plain integers make
CitationNetwork.from_files read both network files with read_table into
patent-number strings, so `predict k2` on OUT_DIR checks that reader
against the integer reader on SRC_DIR: both must print the same report.
"""

from __future__ import annotations

import argparse
import csv
import random
from pathlib import Path
from typing import Mapping

FILES = ("patents.csv", "trials.csv", "fieldtests.csv", "nodes.csv", "edges.csv")
# File -> the columns holding patent numbers; "cited_patents" holds a ;-separated list.
PATENT_COLUMNS = {"patents.csv": ("patent_number", "cited_patents"),
                  "trials.csv": ("patent_number",),
                  "nodes.csv": ("patent_number",),
                  "edges.csv": ("citing_patent", "cited_patent")}


def relabel(src: Path, out: Path, prefix: str = "US", seed: int | None = None,
            mapping: Mapping[str, str] | None = None) -> None:
    """Write the relabelled (and, given a seed, shuffled) copies of src's five CSVs to out."""
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    mapping = mapping or {}

    def label(field: str) -> str:
        return ";".join(prefix + mapping.get(n.strip(), n.strip()) if n.strip() else n
                        for n in field.split(";"))

    for name in FILES:
        with open(src / name, newline="", encoding="utf-8") as f:
            header, *rows = csv.reader(f)
        columns = [header.index(c) for c in PATENT_COLUMNS.get(name, ())]
        rows = [[label(v) if i in columns else v for i, v in enumerate(row)] for row in rows]
        if seed is not None:
            rng.shuffle(rows)
        with open(out / name, "w", newline="", encoding="utf-8") as f:
            csv.writer(f, lineterminator="\n").writerows([header, *rows])


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--prefix", default="US")
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)
    relabel(args.src, args.out, args.prefix, args.seed)


if __name__ == "__main__":
    main()

"""Citation DAG, SPNP centrality and the second predictive model.

SPNP (search path node pairs) for a node i counts ordered pairs of
patents connected by a citation path running through i, with i itself
allowed as an endpoint:

    SPNP(i) = (1 + P_down(i)) * (1 + P_up(i))

where P_down(i) is the number of directed citation paths from i to any
earlier patent and P_up(i) the number of paths from later patents into
i. Both follow Batagelj's linear-time path-count recursion
(arXiv cs/0309023): P_down(i) = sum over cited c of (1 + P_down(c)),
and P_up likewise over the citing patents.

Layout. Patents are numbered by their position in application_years and
every edge becomes a (citing, cited) pair of those numbers; the
constructor takes the pairs as patent-number strings or as an (m, 2)
integer array of positions. CitationNetwork.from_files reads a CSV
straight into int64 arrays when it qualifies: after the header (a
byte-order mark dropped, the header read by csv.reader under the ingest
rules) the bytes hold only ASCII digits, commas and LF or CRLF line
ends, every row has the header's width, and every field has 1 to 18
digits and no leading zero, so it is the str() of its value. Such a
body is parsed by one np.fromstring call. When the node ids are
distinct and every edge end is one of them, the ends become node
numbers through one lookup: a direct table when the ids span at most 4
values per node, else a binary search in the sorted ids. Every other
file (quotes, spaces, signs, blank lines, non-ASCII digits) and every
edge file naming an unknown or repeated node id is read by csv.reader
with string ids, which also names a bad row's file and line; the two
paths give the same network or the same error. Validation
(self-citations, duplicates, unknown endpoints, year order) is done on
the pairs and reports the first bad edge in file order. One
level-synchronous pass of Kahn's algorithm then gives every node a
level: level 0 holds the uncited patents, and a node's level is one more
than the deepest patent citing it. A node left without a level lies on a
cycle. Nodes are renumbered in level order, so each level is a range of
consecutive numbers, and the edges are stored twice as CSR arrays in
that numbering: grouped by citing node (out-edges, the cited patents)
and by cited node (in-edges). The out-edges of a level are then one
slice of the out-edge array, and likewise for in-edges.

Kernel. compute_spnp sweeps the levels once per direction: deepest
first for P_down over out-edges, level 0 first for P_up over in-edges.
A level's values come from one gather of its neighbours' values and one
reduction of each node's CSR segment (np.add.reduceat), so the work is
linear in the edges with one set of array operations per level. Path
counts grow exponentially with network size, so the exact mode holds each
count as 30-bit limbs in an int64 row: a segment sum of limbs cannot
overflow, carries are propagated after each level, and a limb is added
when the top one carries. The limbs become Python integers once, at the
end. The log mode runs the same sweep on log(1 + P) with
np.logaddexp.reduceat; near-ties may rank differently there.

Downstream: per-application-year mid-rank percentiles of SPNP, the
domain centrality (mean over domain patents of the mean percentile of
their cited patents), the growth rate Z of the domain's highly cited
patents (those whose application-year cohort percentile of forward
citations is >= constants.DEFAULT_HIGHLY_CITED_THRESHOLD), and

    K2 = exp(5.0575 * Centrality + 10.1261 * Z - 5.8486).

numpy is bound lazily (cornrate._lazy_module): it is imported by the first
array operation, so CLI commands that never build a network do not pay
for it. The binding stays at module level rather than in each function,
so this module is fully defined once cornrate.cli is imported, and code
that wraps its functions from outside (a profiler, the benchmark's
tracer) finds them all.
"""

from __future__ import annotations

import codecs
import csv
import math
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path
from typing import Callable, Iterable, Mapping

from . import _lazy_module, constants
from .core_data import (EDGE_COLUMNS, NODE_COLUMNS, IngestError, _open_csv,
                        _require_columns)
from .ranking import midrank_percentiles
from .trend import TrendSeries, fit_exponential

np = _lazy_module("numpy")

LIMB_BITS = 30
LIMB_MASK = (1 << LIMB_BITS) - 1


class NetworkError(Exception):
    """Malformed network: cycle, self-edge, duplicate or year violation."""


class _Numbering(dict):
    """Patent number -> node number; a number not yet seen gets the next one."""

    def __missing__(self, name: str) -> int:
        self[name] = number = len(self)
        return number


class CitationNetwork:
    """Directed acyclic citation graph; edges point citing -> cited."""

    def __init__(self, application_years: Mapping[str, int],
                 edges: Iterable[tuple[str, str]] | np.ndarray):
        """edges: (citing, cited) pairs of patent numbers, or an (m, 2) integer
        array of (citing, cited) positions in application_years."""
        self.application_years = dict(application_years)
        n = len(self.application_years)
        numbering = _Numbering(zip(self.application_years, range(n)))
        if isinstance(edges, np.ndarray):
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise ValueError(f"edge array must have shape (m, 2), not {edges.shape}")
            ends = edges.astype(np.int64, copy=False).reshape(-1)
            if ends.size and (ends.min() < 0 or ends.max() >= n):
                raise ValueError(f"edge array holds a position outside 0..{n - 1}")
        else:
            ends = np.fromiter(map(numbering.__getitem__, chain.from_iterable(edges)),
                               dtype=np.int64)
        src, dst = ends[0::2], ends[1::2]
        names = list(numbering)   # unknown endpoints, if any, are numbered from n up
        years = np.fromiter(self.application_years.values(), dtype=np.int64, count=n)
        _check_edges(names, src, dst, years, n)

        order, self._bounds = _kahn_levels(src, dst, n)
        self._index = numbering   # patent number -> node number
        # rank[i]: position of node i in level order; names_by_rank inverts it.
        self._rank = np.empty(n, dtype=np.int64)
        self._rank[order] = np.arange(n)
        self._names_by_rank = [names[i] for i in order.tolist()]
        citing, cited = self._rank[src], self._rank[dst]
        self._out_ptr, self._out = _csr(citing, cited, n)
        self._in_ptr, self._in = _csr(cited, citing, n)

    def cited_patents(self, patent: str) -> list[str]:
        """Patents cited by patent, in edge-file order; [] for an unknown patent."""
        i = self._index.get(patent)
        if i is None:
            return []
        r = self._rank[i]
        names = self._names_by_rank
        return [names[c] for c in self._out[self._out_ptr[r]:self._out_ptr[r + 1]].tolist()]

    @classmethod
    def from_files(cls, node_csv, edge_csv) -> "CitationNetwork":
        """The network in a node CSV (patent_number, application_year) and an
        edge CSV (citing_patent, cited_patent).

        Files of plain integers are parsed as arrays (_read_int_columns);
        any other file, and edges whose ends are not all node ids, go through
        csv.reader (_read_pairs), which also names a bad row's file and line.
        """
        for p in (node_csv, edge_csv):
            if not Path(p).is_file():
                raise NetworkError(f"missing file: {p}")
        nodes = _read_int_columns(node_csv, NODE_COLUMNS)
        if nodes is None:
            numbers, years = _read_pairs(node_csv, NODE_COLUMNS, int)
        else:
            numbers, years = list(map(str, nodes[:, 0].tolist())), nodes[:, 1].tolist()
        application_years = dict(zip(numbers, years))
        if nodes is not None and len(application_years) == len(nodes):
            ends = _read_int_columns(edge_csv, EDGE_COLUMNS)
            positions = None if ends is None else _positions(nodes[:, 0], ends)
            if positions is not None:
                return cls(application_years, positions)
        citing, cited = _read_pairs(edge_csv, EDGE_COLUMNS, str.strip)
        return cls(application_years, zip(citing, cited))


def _column_positions(header: list[str], names: list[str], path) -> list[int]:
    """Index in header of each named column, under the ingest header rules.

    Names match case-insensitively and a missing one is an IngestError; a
    repeated column name reads its last column, as csv.DictReader does.
    """
    actual = _require_columns(header, names, path)
    position = {field: k for k, field in enumerate(header)}
    return [position[actual[name]] for name in names]


def _read_pairs(path, names: list[str], convert: Callable[[str], object]) -> tuple[list, list]:
    """The two named columns of a CSV file: the first stripped, the second converted.

    The header follows the ingest loaders' rules (a byte-order mark is
    dropped, names match case-insensitively) and blank lines are skipped,
    as csv.DictReader does. A row with more or fewer fields than the header,
    or a value convert rejects, is an IngestError naming the file and line.
    """
    handle, reader = _open_csv(path, csv.reader)
    with handle:
        header = next(reader, [])
        i, j = _column_positions(header, names, path)
        width = len(header)
        first, second = [], []
        try:
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise ValueError(f"expected {width} fields, found {len(row)}")
                first.append(row[i].strip())
                second.append(convert(row[j]))
        except ValueError as exc:
            raise IngestError(f"{path}, line {reader.line_num}: {exc}") from None
    return first, second


# A field of the integer path has at most this many digits, so it fits an int64.
MAX_INT_DIGITS = 18


def _read_int_columns(path, names: list[str]) -> np.ndarray | None:
    """The named columns of a CSV file of plain integers, as an int64 array.

    Returns one row per data row and one column per name, or None when the
    body does not qualify: it may hold only ASCII digits, commas and line
    ends (LF, or CRLF), and every row must have the header's width of
    fields of 1 to MAX_INT_DIGITS digits without a leading zero, so each
    field is the str() of its value. The header is read as _read_pairs
    reads it (a byte-order mark is dropped, a missing column is an
    IngestError); a header with a quote or a bare carriage return also
    gives None, and the caller then reads the file with csv.reader.
    """
    data = Path(path).read_bytes()
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]
    head, _, body = data.partition(b"\n")
    head = head[:-1] if head.endswith(b"\r") else head
    if b'"' in head or b"\r" in head:
        return None
    try:
        header = next(csv.reader([head.decode("utf-8")]), [])
    except UnicodeDecodeError:
        return None
    columns = _column_positions(header, names, path)
    body = body.replace(b"\r\n", b"\n")
    if body and not body.endswith(b"\n"):
        body += b"\n"
    if body.translate(None, b"0123456789,\n"):
        return None
    width = len(header)
    text = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(text < ord("0"))   # the comma or line end after each field
    row_layout = np.array([ord(",")] * (width - 1) + [ord("\n")], dtype=np.uint8)
    if ends.size % width or (text[ends].reshape(-1, width) != row_layout).any():
        return None
    length = np.diff(ends, prepend=-1) - 1
    if ends.size and (length.min() < 1 or length.max() > MAX_INT_DIGITS
                      or ((text[ends - length] == ord("0")) & (length > 1)).any()):
        return None
    values = np.fromstring(body.replace(b"\n", b","), dtype=np.int64, sep=",")
    return values.reshape(-1, width)[:, columns]


def _positions(ids: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """Position in ids (which are distinct) of every entry of ends; None if one is missing.

    Ids spanning at most 4 * len(ids) values are looked up in a direct
    table, others by binary search in the sorted ids.
    """
    if not ids.size:
        return None if ends.size else ends
    lo, hi = int(ids.min()), int(ids.max())
    if hi - lo < 4 * ids.size:
        offset = ends - lo
        if ends.size and (offset.min() < 0 or offset.max() > hi - lo):
            return None
        table = np.full(hi - lo + 1, -1, dtype=np.int64)
        table[ids - lo] = np.arange(ids.size)
        found = table[offset]
        return None if (found < 0).any() else found
    order = np.argsort(ids)
    ordered = ids[order]
    at = np.minimum(np.searchsorted(ordered, ends), ids.size - 1)
    return order[at] if (ordered[at] == ends).all() else None


def _check_edges(names: list[str], src: np.ndarray, dst: np.ndarray, years: np.ndarray,
                 n: int) -> None:
    """Raise the NetworkError of the first bad edge in edge order.

    Each edge is checked for, in this order: self-citation, a repeat of an
    earlier edge, an endpoint outside the n nodes (a number >= n, named
    by names) and a cited patent applied after the citing one.
    """
    none = len(src)

    def first(mask: np.ndarray) -> int:
        hits = np.flatnonzero(mask)
        return int(hits[0]) if hits.size else none

    unknown = first((src >= n) | (dst >= n))
    # Duplicates and years are only checked on the edges before the first unknown endpoint.
    s, d = src[:unknown], dst[:unknown]
    key = s * n + d
    by_key = np.argsort(key, kind="stable")
    repeats = by_key[1:][key[by_key[1:]] == key[by_key[:-1]]]
    at, kind = min((first(src == dst), 0), (int(repeats.min(initial=none)), 1),
                   (unknown, 2), (first(years[d] > years[s]), 3))
    if at == none:
        return
    citing, cited = names[src[at]], names[dst[at]]
    if kind == 0:
        raise NetworkError(f"self-citation on {citing}")
    if kind == 1:
        raise NetworkError(f"duplicate edge {citing} -> {cited}")
    if kind == 2:
        raise NetworkError(f"edge endpoint {citing if src[at] >= n else cited} not in node set")
    raise NetworkError(f"cited patent {cited} applied after citing patent {citing}")


def _segments(ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions, in a CSR array with row pointers ptr, of all entries of rows."""
    lo = ptr[rows]
    size = ptr[rows + 1] - lo
    ends = np.cumsum(size)
    return np.repeat(lo - (ends - size), size) + np.arange(ends[-1] if ends.size else 0)


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers and int32 column array; entries of a row keep their input order."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr, cols[np.argsort(rows, kind="stable")].astype(np.int32)


def _kahn_levels(src: np.ndarray, dst: np.ndarray,
                 n: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Kahn's algorithm over citing -> cited, one level at a time.

    Level 0 is the nodes nothing cites; removing a level frees the next.
    Returns the node numbers in level order and the [start, stop) of each
    level within them. A node that never gets a level lies on a cycle.
    """
    ptr, cited = _csr(src, dst, n)
    waiting = np.bincount(dst, minlength=n)   # citing edges not yet removed
    level = np.flatnonzero(waiting == 0)
    levels, bounds, start = [], [], 0
    while level.size:
        levels.append(level)
        bounds.append((start, start + level.size))
        start += level.size
        hit, count = np.unique(cited[_segments(ptr, level)], return_counts=True)
        waiting[hit] -= count
        level = hit[waiting[hit] == 0]
    if start != n:
        raise NetworkError("citation network contains a cycle")
    return (np.concatenate(levels) if levels else np.zeros(0, dtype=np.int64)), bounds


def _sweep(bounds: Iterable[tuple[int, int]], ptr: np.ndarray, adj: np.ndarray,
           values: np.ndarray, combine) -> np.ndarray:
    """Fill values level by level from each node's neighbours' values.

    values has one row per node (in level order); combine(gathered,
    starts, degree) reduces the neighbours' rows of every node in a level
    with at least one neighbour and may return more columns than values
    has, which widens values. Nodes without neighbours keep their row.
    """
    for lo, hi in bounds:
        first, last = ptr[lo], ptr[hi]
        if first == last:
            continue
        starts = ptr[lo:hi] - first
        degree = ptr[lo + 1:hi + 1] - ptr[lo:hi]
        used = np.flatnonzero(degree)
        block = combine(values[adj[first:last]], starts[used], degree[used])
        if block.shape[1] > values.shape[1]:
            wider = np.zeros((values.shape[0], block.shape[1]), dtype=values.dtype)
            wider[:, :values.shape[1]] = values
            values = wider
        values[lo + used] = block
    return values


def _add_path_counts(gathered: np.ndarray, starts: np.ndarray,
                     degree: np.ndarray) -> np.ndarray:
    # sum over neighbours of (1 + P): limb-wise segment sums, then carries.
    # Limbs are < 2**30 on entry, so a segment of fewer than 2**32 rows fits in int64.
    block = np.add.reduceat(gathered, starts, axis=0)
    block[:, 0] += degree
    while True:
        for j in range(block.shape[1] - 1):
            block[:, j + 1] += block[:, j] >> LIMB_BITS
            block[:, j] &= LIMB_MASK
        top = block[:, -1] >> LIMB_BITS
        if not top.any():
            return block
        block[:, -1] &= LIMB_MASK
        block = np.column_stack([block, top])


def _add_log_path_counts(gathered: np.ndarray, starts: np.ndarray,
                         degree: np.ndarray) -> np.ndarray:
    # log(1 + sum over neighbours of (1 + P)), from rows holding log(1 + P).
    return np.logaddexp(0.0, np.logaddexp.reduceat(gathered, starts, axis=0))


def _limbs_to_ints(limbs: np.ndarray) -> np.ndarray:
    """Object array of the Python integers that rows of 30-bit limbs stand for."""
    if limbs.shape[1] % 2:
        limbs = np.column_stack([limbs, np.zeros(len(limbs), dtype=limbs.dtype)])
    words = limbs[:, 0::2] | (limbs[:, 1::2] << LIMB_BITS)   # two limbs per int64
    values = words[:, -1].astype(object)
    for j in range(words.shape[1] - 2, -1, -1):
        values = (values << 2 * LIMB_BITS) | words[:, j].astype(object)
    return values


def compute_spnp(net: CitationNetwork, approximate: bool = False) -> dict:
    """Exact SPNP per node; with approximate=True, natural-log values.

    The log-space mode is for networks whose path counts overflow any
    practical exact computation; near-ties may rank differently there.
    """
    n = len(net.application_years)
    if approximate:
        combine, start = _add_log_path_counts, np.zeros((n, 1), dtype=np.float64)
    else:
        combine, start = _add_path_counts, np.zeros((n, 1), dtype=np.int64)
    down = _sweep(reversed(net._bounds), net._out_ptr, net._out, start.copy(), combine)
    up = _sweep(net._bounds, net._in_ptr, net._in, start, combine)
    if approximate:
        # Rows hold log(1 + P_down) and log(1 + P_up), so the sum is log SPNP.
        spnp = (down[:, 0] + up[:, 0])[net._rank].tolist()
    else:
        spnp = ((1 + _limbs_to_ints(down)) * (1 + _limbs_to_ints(up)))[net._rank].tolist()
    return dict(zip(net.application_years, spnp))


@dataclass
class DomainCentrality:
    value: float
    n_used: int                 # domain patents entering the outer mean
    n_excluded_no_citations: int
    n_skipped_unknown_cited: int


def domain_centrality(domain_patents: Iterable[str], net: CitationNetwork,
                      rank_percentile: Mapping[str, float]) -> DomainCentrality:
    """Mean over domain patents of the mean percentile of their cited patents.

    Patents citing nothing contribute nothing (1/CB_i undefined) and are
    tallied; cited patents without a percentile (outside the scored
    corpus) are skipped and tallied.
    """
    inner_means = []
    excluded = 0
    skipped = 0
    for patent in sorted(set(domain_patents)):
        cited = net.cited_patents(patent)
        scored = [rank_percentile[c] for c in cited if c in rank_percentile]
        skipped += len(cited) - len(scored)
        if not scored:
            excluded += 1
            continue
        inner_means.append(math.fsum(scored) / len(scored))
    if not inner_means:
        raise NetworkError("no domain patent has scored citations")
    return DomainCentrality(
        value=math.fsum(inner_means) / len(inner_means),
        n_used=len(inner_means),
        n_excluded_no_citations=excluded,
        n_skipped_unknown_cited=skipped,
    )


def classify_highly_cited(citation_percentiles: Mapping[str, float],
                          threshold: float = constants.DEFAULT_HIGHLY_CITED_THRESHOLD
                          ) -> dict[str, bool]:
    """Inclusive threshold on the cohort citation rank percentile."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0, 1)")
    return {k: v >= threshold for k, v in citation_percentiles.items()}


def compute_z(domain_patents: Iterable[str], highly_cited: Mapping[str, bool],
              application_years: Mapping[str, int]) -> float:
    """Exponential rate of the cumulative highly-cited count by application year.

    Years before the first highly cited patent are excluded (log of zero);
    with no highly cited patents at all, or only in the last domain year,
    Z = 0 by convention.
    """
    domain = sorted(set(domain_patents))
    counts: dict[int, int] = {}
    for patent in domain:
        if highly_cited.get(patent, False):
            year = application_years[patent]
            counts[year] = counts.get(year, 0) + 1
    if not counts:
        return 0.0
    years = range(min(counts), max(application_years[p] for p in domain) + 1)
    if len(years) < 2:
        return 0.0
    cumulative = accumulate(counts.get(year, 0) for year in years)
    return fit_exponential(TrendSeries(tuple(zip(years, cumulative)))).k


def predict_k2(centrality: float, z: float) -> float:
    return math.exp(constants.K2_CENTRALITY * centrality
                    + constants.K2_Z * z
                    + constants.K2_INTERCEPT)


@dataclass
class CentralityResult:
    spnp: dict[str, int]
    rank_percentile: dict[str, float]
    centrality: DomainCentrality
    z: float
    k2: float
    n_highly_cited: int = 0


def evaluate_domain(net: CitationNetwork, domain_patents: Iterable[str],
                    citation_percentiles: Mapping[str, float],
                    threshold: float = constants.DEFAULT_HIGHLY_CITED_THRESHOLD
                    ) -> CentralityResult:
    """Full second-model evaluation for one domain within a network.

    Centrality comes from the cohort SPNP percentiles of the network.
    citation_percentiles are the cohort (application-year) mid-rank
    percentiles of forward-citation counts; a domain patent is highly
    cited when its percentile is >= threshold, and those flags drive Z.
    """
    domain = sorted(set(domain_patents))
    spnp = compute_spnp(net)
    percentile = midrank_percentiles(spnp, net.application_years)
    centrality = domain_centrality(domain, net, percentile)
    flags = classify_highly_cited(citation_percentiles, threshold)
    z = compute_z(domain, flags, net.application_years)
    return CentralityResult(
        spnp=spnp,
        rank_percentile=percentile,
        centrality=centrality,
        z=z,
        k2=predict_k2(centrality.value, z),
        n_highly_cited=sum(1 for p in domain if flags.get(p, False)),
    )

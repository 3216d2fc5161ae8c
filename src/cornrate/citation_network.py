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
byte-order mark dropped, its names matched under the rules of
core_data.read_table) the bytes hold only ASCII digits, commas and LF or
CRLF line ends, every row has the header's width, and every field has 1
to 18 digits and no leading zero, so it is the str() of its value. Such
a body is parsed by one np.fromstring call. A repeated node id is an
IngestError. When every edge end is a node id, the ends become node
numbers through one lookup: a direct table when the ids span at most 4
values per node, else a binary search in the sorted ids. Every other
file (quotes, spaces, signs, blank lines, non-ASCII digits) and every
edge file naming an unknown node id is read with string ids by
core_data.read_table, which also names a bad row's file and line; the
two paths give the same network or the same error. Validation
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
Each node holds 1 + P, starting at 1; a level's entries come from one
gather of its neighbours' entries and one sum of each node's CSR segment
(np.add.reduceat), plus 1, so the work is linear in the edges with one
set of array operations per level. Path counts grow exponentially with
network size, so the exact mode holds them as Python integers in an
object array and SPNP is the product of the two sweeps' entries. The log
mode runs the same sweep on log(1 + P) with np.logaddexp.reduceat and
adds the two sweeps; near-ties may rank differently there.

Downstream, in evaluate_k2 (the call behind `predict k2`):
per-application-year mid-rank percentiles of SPNP, the domain centrality
(mean over domain patents of the mean percentile of their cited
patents), the growth rate Z of the domain's highly cited patents (those
whose application-year cohort percentile of forward citations is >= a
threshold in (0, 1), constants.DEFAULT_HIGHLY_CITED_THRESHOLD unless the
run configuration sets highly_cited_threshold), and

    K2 = exp(5.0575 * Centrality + 10.1261 * Z - 5.8486).

numpy is bound lazily (cornrate._lazy_module): it is imported by the first
array operation, so CLI commands that never build a network do not pay
for it. The binding stays at module level rather than in each function,
so this module is fully defined once cornrate.cli is imported, and code
that wraps its functions from outside (a profiler, the benchmark's
tracer) finds them all.
"""

from __future__ import annotations

import csv
import math
from itertools import accumulate, chain
from typing import Iterable, Mapping

from . import _lazy_module, constants
from .core_data import (EDGE_COLUMNS, NODE_COLUMNS, CornrateError, IngestError, PatentRecord,
                        _column_positions, read_table, read_text)
from .ranking import midrank_percentiles
from .trend import TrendSeries, fit_exponential

np = _lazy_module("numpy")


class NetworkError(CornrateError):
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
        core_data.read_table, which also names a bad row's file and line.
        """
        application_years, nodes = _read_nodes(node_csv)
        if nodes is not None:
            ends = _read_int_columns(edge_csv, EDGE_COLUMNS)
            positions = None if ends is None else _positions(nodes[:, 0], ends)
            if positions is not None:
                return cls(application_years, positions)
        return cls(application_years, read_table(
            edge_csv, lambda header: _column_positions(header, EDGE_COLUMNS, edge_csv),
            lambda citing, cited: (citing.strip(), cited.strip())))


def _read_nodes(path) -> tuple[dict[str, int], np.ndarray | None]:
    """The application year of each patent number in a node CSV, and the file's
    rows as an array if the integer path reads it; a repeated number is an IngestError."""
    nodes = _read_int_columns(path, NODE_COLUMNS)
    if nodes is None:
        rows = list(read_table(path, lambda header: _column_positions(header, NODE_COLUMNS, path),
                               lambda number, year: (number.strip(), int(year))))
        numbers = [number for number, _ in rows]
    else:
        numbers = list(map(str, nodes[:, 0].tolist()))
        rows = zip(numbers, nodes[:, 1].tolist())
    application_years = dict(rows)
    if len(application_years) < len(numbers):
        seen: set[str] = set()
        repeat = next(n for n in numbers if n in seen or seen.add(n))
        raise IngestError(f"{path}: duplicate patent_number {repeat}")
    return application_years, nodes


# A field of the integer path has at most this many digits, so it fits an int64.
MAX_INT_DIGITS = 18


def _read_int_columns(path, names: list[str]) -> np.ndarray | None:
    """The named columns of a CSV file of plain integers, as an int64 array.

    Returns one row per data row and one column per name, or None when the
    body does not qualify: it may hold only ASCII digits, commas and line
    ends (LF, or CRLF), and every row must have the header's width of
    fields of 1 to MAX_INT_DIGITS digits without a leading zero, so each
    field is the str() of its value. The file is read by read_text and
    its header as read_table reads it, so a missing or undecodable file or
    a missing column is an IngestError; a header with a quote or a bare
    carriage return also gives None, and the caller then reads the file
    with read_table.
    """
    head, _, body = read_text(path).encode().partition(b"\n")
    head = head[:-1] if head.endswith(b"\r") else head
    if b'"' in head or b"\r" in head:
        return None
    try:
        header = next(csv.reader([head.decode()]), [])
    except csv.Error:
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

    values has one entry per node (in level order); combine(gathered,
    starts) reduces the gathered neighbour entries of every node in a
    level with at least one neighbour, each node's run beginning at its
    entry of starts. Nodes without neighbours keep their entry.
    """
    for lo, hi in bounds:
        first, last = ptr[lo], ptr[hi]
        if first == last:
            continue
        used = np.flatnonzero(ptr[lo + 1:hi + 1] - ptr[lo:hi])
        values[lo + used] = combine(values[adj[first:last]], ptr[lo + used] - first)
    return values


def _add_path_counts(gathered: np.ndarray, starts: np.ndarray) -> np.ndarray:
    # 1 + sum over neighbours of (1 + P), from entries holding 1 + P.
    return np.add.reduceat(gathered, starts) + 1


def _add_log_path_counts(gathered: np.ndarray, starts: np.ndarray) -> np.ndarray:
    # log(1 + sum over neighbours of (1 + P)), from entries holding log(1 + P).
    return np.logaddexp(0.0, np.logaddexp.reduceat(gathered, starts))


def compute_spnp(net: CitationNetwork, approximate: bool = False) -> dict:
    """Exact SPNP per node; with approximate=True, natural-log values.

    The log-space mode is for networks whose path counts overflow any
    practical exact computation; near-ties may rank differently there.
    """
    n = len(net.application_years)
    if approximate:
        combine, start = _add_log_path_counts, np.zeros(n)
    else:
        combine, start = _add_path_counts, np.ones(n, dtype=object)
    down = _sweep(reversed(net._bounds), net._out_ptr, net._out, start.copy(), combine)
    up = _sweep(net._bounds, net._in_ptr, net._in, start, combine)
    # Entries hold 1 + P_down and 1 + P_up (log mode: their logs), so SPNP is
    # their product (log mode: their sum).
    spnp = down + up if approximate else down * up
    return dict(zip(net.application_years, spnp[net._rank].tolist()))


def domain_centrality(domain_patents: Iterable[str], net: CitationNetwork,
                      rank_percentile: Mapping[str, float]) -> dict:
    """Mean over domain patents of the mean percentile of their cited patents.

    Returned as "centrality", with two tallies: patents citing nothing
    contribute nothing (1/CB_i undefined) and are counted in
    "n_excluded_no_citations"; cited patents without a percentile (outside
    the scored corpus) are skipped and counted in "n_skipped_unknown_cited".
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
    return {"centrality": math.fsum(inner_means) / len(inner_means),
            "n_excluded_no_citations": excluded, "n_skipped_unknown_cited": skipped}


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


def evaluate_k2(net: CitationNetwork, patents: Mapping[str, PatentRecord],
                domain: Iterable[PatentRecord], threshold: float) -> dict:
    """K2 and its inputs for the domain patents in the network.

    Centrality comes from the cohort SPNP percentiles of the whole network
    (domain_centrality, whose tallies are reported with it). The citation
    percentiles rank the forward-citation counts of the collection's
    patents in the network by application-year cohort, so an excluded
    patent, dropped from the collection, stays a node but is not ranked.
    A domain patent is highly cited when its percentile is >= threshold,
    which must lie in (0, 1), and those patents drive Z.
    """
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0, 1)")
    numbers = sorted(p.patent_number for p in domain if p.patent_number in net.application_years)
    if not numbers:
        raise NetworkError("no domain patents present in the network")
    citation_percentiles = midrank_percentiles(
        {n: p.forward_citation_count for n, p in patents.items() if n in net.application_years},
        net.application_years)
    percentile = midrank_percentiles(compute_spnp(net), net.application_years)
    centrality = domain_centrality(numbers, net, percentile)
    flags = {n: v >= threshold for n, v in citation_percentiles.items()}
    z = compute_z(numbers, flags, net.application_years)
    return {"n_domain": len(numbers), **centrality, "z": z,
            "k2": predict_k2(centrality["centrality"], z),
            "n_highly_cited": sum(1 for n in numbers if flags.get(n, False)),
            "highly_cited_threshold": threshold}

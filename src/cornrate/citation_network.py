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

Layout. A network holds one id per node, in node-listing order: int64
ids when both its inputs are integer arrays (as from two files of plain
integers), else patent-number strings, kept as Python str in an object
array (a fixed-width numpy string drops a trailing NUL). Nodes are
numbered (node numbers, int32) by position in that listing, and every
edge becomes a (citing, cited) pair of node numbers. The constructor
takes the nodes as a patent number -> year mapping or as an (n, 2) array
of (id, year) rows, and the edges as patent-number pairs or as an (m, 2)
array of ids. One lookup, _positions, gives the node number of an id, -1
for an id that names no node: a dict for strings; for integers a direct
int32 table when the ids span at most 4 values per node, else a binary
search. The constructor looks up the citing and the cited column one at
a time, so the edges become two int32 arrays of node numbers, and every
later stage (the checks, Kahn's pass, both CSRs) works on those.
An integer network makes patent numbers only when asked for them
(application_years, cited_patents, compute_spnp's dict, error messages),
and a patent number names its node only if it is the str() of the node's
id, as in a network of strings. CitationNetwork.from_files parses each
file once. A CSV is read straight into int64 arrays when it qualifies:
after the header (a byte-order mark dropped, its names matched under the
rules of core_data.read_table) the bytes hold only ASCII digits, commas
and LF or CRLF line ends, every row has the header's width, and every
field has 1 to 18 digits and no leading zero, so it is the str() of its
value. The file is read as bytes and only its header is decoded. The
body is read where it lies in those bytes, by np.frombuffer at its
offset, and copied only to drop CRs or to end its last row with a line
end. When every row has the first row's length and separator places, as
in files of fixed-width ids, the body is a 2-D byte grid, a view of
those bytes: each field's digit places and separator are checked on
views of the grid, column by column, and each read column is parsed one
digit place at a time into its own contiguous row of the result
(_read_fixed_rows); any other body is parsed by one np.fromstring call.
Every other file (quotes, spaces, signs, blank lines, non-ASCII digits,
prefixed ids such as US6000038) is read into strings by
core_data.read_table, which also names a bad row's file and line; both
readers give the same network or the same error. A repeated node id is
an IngestError. Validation (self-citations, duplicates, ends that name
no node, year order) is done on the node numbers and reports the first
bad edge in file order, named by the ids it was given. One
level-synchronous pass of Kahn's algorithm over a CSR of the out-edges
then gives every node a level: level 0 holds the uncited patents, and a
node's level is one more than the deepest patent citing it. Each level's
edges decrement the counts of citing edges left (np.subtract.at), and
only the nodes they free are sorted and deduplicated into the next
level. A node left without a level lies on a cycle. Nodes are ranked in
level order, so each level is a range of consecutive ranks, and the
edges are stored twice as CSR arrays over the ranks: grouped by citing
node (out-edges, the cited patents; a gather of Kahn's CSR in level
order) and by cited node (in-edges). The out-edges of a level are then
one slice of the out-edge array, and likewise for in-edges; each row of
both CSRs keeps edge-file order. Each direction's level plan is built
once per network (_level_plan): for every level with edges, the ranks of
its nodes with neighbours, their reduceat starts and the level's
[first, last) edge range.

Kernel. compute_spnp sweeps the levels once per direction: deepest
first for P_down over out-edges, level 0 first for P_up over in-edges.
Each node holds 1 + P, starting at 1; by the level plan, a level's
entries come from one gather of its neighbours' entries, one sum of each
node's CSR segment (np.add.reduceat), plus 1, and one scatter, so the
work is linear in the edges with one set of array operations per level.
Path counts grow exponentially with network size, so the exact mode
sweeps an object array of Python integers, whose sums never round or
wrap, and SPNP is the product of the two sweeps' entries, formed in
place in the down sweep's array so that the up sweep's integers are let
go as it ends and no third set is made. The log mode runs the same sweep
on log(1 + P) with np.logaddexp.reduceat and adds the two sweeps in
place; near-ties may rank differently there. compute_spnp returns a dict
keyed by patent number, or the array itself.

Downstream, in evaluate_k2 (the call behind `predict k2`): the
per-application-year mid-rank percentiles of the exact SPNP array, by
ranking.midranks (a sort by float64 value, then the exact integers
inside runs of equal floats); the domain centrality (mean over domain
patents of the mean percentile of their cited patents, which are the
only percentiles made Python floats); the growth rate
Z of the domain's highly cited patents (those whose application-year
cohort percentile of forward citations, by ranking.midrank_percentiles,
is >= a threshold in (0, 1),
constants.DEFAULT_HIGHLY_CITED_THRESHOLD unless the run configuration
sets highly_cited_threshold); and

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
from functools import cached_property, partial
from itertools import accumulate, chain, compress, repeat
from typing import Callable, Iterable, Mapping

from . import _lazy_module, constants
from .core_data import (EDGE_COLUMNS, NODE_COLUMNS, CornrateError, IngestError, PatentRecord,
                        _column_positions, read_bytes, read_table)
from .ranking import midrank_percentiles, midranks
from .trend import TrendSeries, fit_exponential

np = _lazy_module("numpy")


class NetworkError(CornrateError):
    """Malformed network: cycle, self-edge, duplicate or year violation."""


class CitationNetwork:
    """Directed acyclic citation graph; edges point citing -> cited."""

    def __init__(self, application_years: Mapping[str, int] | np.ndarray,
                 edges: Iterable[tuple[str, str]] | np.ndarray):
        """application_years: patent number -> application year, or an (n, 2)
        array of (id, application year) rows with distinct ids; edges:
        (citing, cited) pairs of patent numbers, or an (m, 2) array of
        (citing, cited) ids. An id is a patent-number string (in an object
        array) or a non-negative integer standing for the patent number
        str(id); where either side holds strings, integer ids become their
        str()."""
        if not isinstance(application_years, np.ndarray):
            application_years = _object_rows(application_years.items())
        ends = edges if isinstance(edges, np.ndarray) else _object_rows(edges)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError(f"edge array must have shape (m, 2), not {ends.shape}")
        self._ids = application_years[:, 0]
        if object in (self._ids.dtype, ends.dtype):
            self._ids, ends = _as_strings(self._ids), _as_strings(ends)
        self._years = application_years[:, 1].astype(np.int64)
        n = len(self._years)
        # The int32 node number of every id of an array; -1 for one that names no node.
        self._lookup = _positions(self._ids)
        src, dst = self._lookup(ends[:, 0]), self._lookup(ends[:, 1])
        _check_edges(src, dst, self._years, ends)

        order, self._starts, ptr, cited = _kahn_levels(src, dst, n)
        # order[r]: the node of rank r (its position in level order); rank inverts it.
        self._order = order
        self._rank = np.empty(n, dtype=np.int32)
        self._rank[order] = np.arange(n)
        self._out_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.diff(ptr)[order], out=self._out_ptr[1:])
        self._out = self._rank[cited[_segments(ptr, order)]]
        del ptr, cited   # let go before the in-edge CSR, where the build peaks
        self._in_ptr, self._in = _csr(self._rank[dst], self._rank[src], n)

    @cached_property
    def _out_plan(self) -> list[tuple]:
        return _level_plan(self._out_ptr, self._starts)

    @cached_property
    def _in_plan(self) -> list[tuple]:
        return _level_plan(self._in_ptr, self._starts)

    @cached_property
    def application_years(self) -> dict[str, int]:
        """Patent number -> application year, in node order."""
        return dict(zip(self._names, self._years.tolist()))

    @cached_property
    def _names(self) -> list[str]:
        """The patent number of every node, in node order."""
        return list(map(str, self._ids.tolist()))

    def _nodes(self, numbers: list[str]) -> np.ndarray:
        """The node number of each patent number; -1 for one that names no node."""
        if self._ids.dtype == object:
            keys = np.array(numbers, dtype=object)
        else:
            # An integer id is named by its str() only; no id is -1.
            keys = np.fromiter((int(s) if _is_int_name(s) else -1 for s in numbers),
                               dtype=np.int64, count=len(numbers))
        return self._lookup(keys)

    def _application_years_of(self, numbers: list[str]) -> dict[str, int]:
        """The application year of each of the patent numbers that names a node."""
        nodes = self._nodes(numbers)
        found = nodes >= 0
        return dict(zip(compress(numbers, found.tolist()), self._years[nodes[found]].tolist()))

    def _cited(self, node: int) -> list[int]:
        """The nodes cited by a node, in edge-file order."""
        r = self._rank[node]
        return self._order[self._out[self._out_ptr[r]:self._out_ptr[r + 1]]].tolist()

    def cited_patents(self, patent: str) -> list[str]:
        """Patents cited by patent, in edge-file order; [] for an unknown patent."""
        node = int(self._nodes([patent])[0])
        return [] if node < 0 else list(map(str, self._ids[self._cited(node)].tolist()))

    @classmethod
    def from_files(cls, node_csv, edge_csv) -> "CitationNetwork":
        """The network in a node CSV (patent_number, application_year) and an
        edge CSV (citing_patent, cited_patent).

        Each file is parsed once: into an int64 array if it is a file of
        plain integers (_read_int_columns), else into patent-number strings
        by core_data.read_table, which also names a bad row's file and line.
        """
        return cls(_read_nodes(node_csv),
                   _read_pairs(edge_csv, EDGE_COLUMNS,
                               lambda citing, cited: (citing.strip(), cited.strip())))


def _first_repeat(keys: np.ndarray, none: int) -> int:
    """The first position whose key occurs at an earlier position; none if no key repeats."""
    ordered = np.sort(keys)   # faster than the stable argsort, which only a repeat needs
    if not (ordered[1:] == ordered[:-1]).any():
        return none
    by_key = np.argsort(keys, kind="stable")
    return int(by_key[1:][keys[by_key[1:]] == keys[by_key[:-1]]].min())


def _object_rows(pairs: Iterable[tuple]) -> np.ndarray:
    """The pairs as the rows of an (m, 2) object array."""
    return np.fromiter(chain.from_iterable(pairs), dtype=object).reshape(-1, 2)


def _as_strings(ids: np.ndarray) -> np.ndarray:
    """ids as patent-number strings in an object array; an integer id becomes its str()."""
    if ids.dtype == object:
        return ids
    return np.array(list(map(str, ids.ravel().tolist())), dtype=object).reshape(ids.shape)


def _read_pairs(path, names: list[str], parse) -> np.ndarray:
    """The two named columns of a CSV file, one row per data row: an int64
    array if _read_int_columns reads the file, else an object array of the
    pairs parse makes of each row, read by core_data.read_table."""
    rows = _read_int_columns(path, names)
    if rows is None:
        rows = _object_rows(read_table(
            path, lambda header: _column_positions(header, names, path), parse))
    return rows


def _read_nodes(path) -> np.ndarray:
    """The (id, application year) rows of a node CSV, as _read_pairs reads
    them; a repeated id is an IngestError."""
    nodes = _read_pairs(path, NODE_COLUMNS, lambda number, year: (number.strip(), int(year)))
    ids = nodes[:, 0]
    at = _first_repeat(_positions(ids)(ids), len(nodes))
    if at < len(nodes):
        raise IngestError(f"{path}: duplicate patent_number {ids[at]}")
    return nodes


# A field of the integer path has at most this many digits, so it fits an int64.
MAX_INT_DIGITS = 18


def _is_int_name(number: str) -> bool:
    """Whether number is the str() of an id the integer path can read."""
    return (0 < len(number) <= MAX_INT_DIGITS and number.isascii() and number.isdigit()
            and (number[0] != "0" or len(number) == 1))


def _read_int_columns(path, names: list[str]) -> np.ndarray | None:
    """The named columns of a CSV file of plain integers, as an int64 array.

    Returns one row per data row and one column per name, or None when
    the body does not qualify: it may hold only ASCII digits, commas and
    line ends (LF, or CRLF), and every row must have the header's width
    of fields of 1 to MAX_INT_DIGITS digits without a leading zero, so
    each field is the str() of its value. The file's bytes come from
    read_bytes, and only its header is decoded, split as read_table
    splits it; a missing file or a missing column in a qualifying file
    is an IngestError. The body is read where it lies in those bytes,
    which are copied only to drop CRs or to end the last row with a line
    end. A body of one row layout is read by _read_fixed_rows. A header
    with a quote, a bare carriage return or a byte that is not UTF-8 also
    gives None, and the caller then reads the file with read_table, which
    gives a file that does not decode its error.
    """
    data = read_bytes(path)
    end = data.find(b"\n")
    head, start = (data, len(data)) if end < 0 else (data[:end], end + 1)
    head = head.removesuffix(b"\r")
    if b'"' in head or b"\r" in head:
        return None
    try:
        header = next(csv.reader([head.decode()]), [])
    except (csv.Error, UnicodeDecodeError):
        return None
    if data.find(b"\r", start) >= 0:
        data = data.replace(b"\r\n", b"\n")
        start = data.find(b"\n") + 1   # a CR in the header can only have ended it
    if start < len(data) and not data.endswith(b"\n"):
        data += b"\n"
    text = np.frombuffer(data, dtype=np.uint8, offset=start)
    if text.max(initial=0) > ord("9"):
        return None
    columns = _column_positions(header, names, path)
    width = len(header)
    row_layout = np.array([ord(",")] * (width - 1) + [ord("\n")], dtype=np.uint8)
    fixed = _read_fixed_rows(data, start, row_layout, columns)
    if fixed is not None:
        return fixed
    # The comma or line end after each field; any other byte below "0" breaks the row layout.
    ends = np.flatnonzero(text < ord("0"))
    if ends.size % width or (text[ends].reshape(-1, width) != row_layout).any():
        return None
    length = np.diff(ends, prepend=-1) - 1
    if ends.size and (length.min() < 1 or length.max() > MAX_INT_DIGITS
                      or ((text[ends - length] == ord("0")) & (length > 1)).any()):
        return None
    values = np.fromstring(data[start:].replace(b"\n", b","), dtype=np.int64, sep=",")
    return values.reshape(-1, width)[:, columns]


def _read_fixed_rows(data: bytes, start: int, row_layout: np.ndarray,
                     columns: list[int]) -> np.ndarray | None:
    """The given columns of the body that begins at data[start], which
    qualifies for _read_int_columns, when its rows all have the first row's
    length and separator places, read where it lies, one digit place at a
    time; None for any other body, which the general parse then judges.
    """
    first_end = data.find(b"\n", start)
    size = first_end + 1 - start
    if first_end < 0 or (len(data) - start) % size:
        return None
    grid = np.frombuffer(data, dtype=np.uint8, offset=start).reshape(-1, size)
    ends = np.flatnonzero(grid[0] < ord("0"))
    if ends.size != row_layout.size:
        return None
    starts = np.append(0, ends[:-1] + 1)
    length = ends - starts
    if length.min() < 1 or length.max() > MAX_INT_DIGITS:
        return None
    # Column by column, on views of the grid: every row has the separator, a
    # digit (no byte is above "9") at each place of the field, and no leading zero.
    for lo, hi, separator in zip(starts.tolist(), ends.tolist(), row_layout.tolist()):
        if ((grid[:, hi] != separator).any() or grid[:, lo:hi].min() < ord("0")
                or (hi - lo > 1 and grid[:, lo].min() == ord("0"))):
            return None
    # One contiguous row per column, returned transposed: Horner's rule on the
    # bytes runs in place there, then the "0" of every place is subtracted at
    # once; the sum is at most 57 * (10**18 - 1) / 9 < 2**63.
    values = np.empty((len(columns), len(grid)), dtype=np.int64)
    for value, lo, hi in zip(values, starts[columns].tolist(), ends[columns].tolist()):
        value[:] = grid[:, lo]
        for place in range(lo + 1, hi):
            value *= 10
            value += grid[:, place]
        value -= ord("0") * ((10 ** (hi - lo) - 1) // 9)
    return values.T


def _positions(ids: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The lookup of ids: a function giving the position in ids of every
    entry of an array, in its shape, and -1 for an entry that is no id.
    Ids are distinct but for the check that finds a repeated one, which
    relies on every copy of an id getting the same one of its positions.

    Positions are int32. Patent-number strings are looked up in a dict.
    Integer ids spanning at most 4 * len(ids) values are looked up in a
    direct int32 table, others by binary search in the sorted ids.
    """
    if ids.dtype == object:
        index = dict(zip(ids.tolist(), range(ids.size)))
        return lambda ends: np.fromiter(map(index.get, ends.ravel().tolist(), repeat(-1)),
                                        dtype=np.int32, count=ends.size).reshape(ends.shape)
    if not ids.size:
        return lambda ends: np.full(ends.shape, -1, dtype=np.int32)
    lo, span = int(ids.min()), int(ids.max()) - int(ids.min()) + 1
    if span <= 4 * ids.size:
        table = np.full(span + 1, -1, dtype=np.int32)   # its last entry stands for no id
        table[ids - lo] = np.arange(ids.size)

        def direct(ends: np.ndarray) -> np.ndarray:
            # An end outside the span is clipped to index -1 or span: both the last entry.
            offset = ends - lo
            return table[np.clip(offset, -1, span, out=offset)]
        return direct
    order = np.argsort(ids)
    ordered = ids[order]
    order = order.astype(np.int32)

    def search(ends: np.ndarray) -> np.ndarray:
        at = np.minimum(np.searchsorted(ordered, ends), ids.size - 1)
        return np.where(ordered[at] == ends, order[at], np.int32(-1))
    return search


def _check_edges(src: np.ndarray, dst: np.ndarray, years: np.ndarray,
                 ends: np.ndarray) -> None:
    """Raise the NetworkError of the first bad edge in edge order.

    src and dst hold the int32 node numbers of the edges' ends, -1 for an
    end that names no node, and the (m, 2) ids ends name the bad edge's
    patents in the message. Each edge is checked for, in this order:
    self-citation, a repeat of an earlier edge, an end that names no node
    and a cited patent applied after the citing one.
    """
    none = len(src)

    def first(mask: np.ndarray) -> int:
        hits = np.flatnonzero(mask)
        return int(hits[0]) if hits.size else none

    unknown = first((src < 0) | (dst < 0))
    # The other checks need the nodes of both ends, so they stop at the first unknown end.
    s, d = src[:unknown], dst[:unknown]
    pair = s.astype(np.int64) * len(years) + d   # one key per edge, up to n * n: int64
    at, kind = min((first(s == d), 0), (_first_repeat(pair, none), 1),
                   (unknown, 2), (first(years[d] > years[s]), 3))
    if at == none:
        return
    citing, cited = map(str, ends[at].tolist())
    if kind == 0 or citing == cited:   # an unknown id citing itself is a self-citation too
        raise NetworkError(f"self-citation on {citing}")
    if kind == 1:
        raise NetworkError(f"duplicate edge {citing} -> {cited}")
    if kind == 2:
        raise NetworkError(f"edge endpoint {citing if src[at] < 0 else cited} not in node set")
    raise NetworkError(f"cited patent {cited} applied after citing patent {citing}")


def _segments(ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions, in a CSR array with row pointers ptr, of all entries of rows."""
    lo = ptr[rows]
    size = ptr[rows + 1] - lo
    ends = size.cumsum()   # array methods skip numpy's Python wrappers, once per Kahn level
    return (lo - (ends - size)).repeat(size) + np.arange(ends[-1] if ends.size else 0)


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers and the column array (cols itself when rows are sorted);
    entries of a row keep their input order."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    m = len(rows)
    if (rows[1:] < rows[:-1]).any():
        # Distinct keys that order each row's entries by position, so sorting
        # the keys themselves (faster than an argsort) gives the stable order,
        # and a sorted key mod m is its entry's position. They stay below
        # n * m, far below 2**63 for any network that fits in memory.
        cols = cols[np.sort(rows.astype(np.int64) * m + np.arange(m)) % m]
    return ptr, cols


def _kahn_levels(src: np.ndarray, dst: np.ndarray,
                 n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Kahn's algorithm over citing -> cited, one level at a time.

    Level 0 is the nodes nothing cites; removing a level frees the next.
    Returns the node numbers in level order, the start of each level within
    them followed by n, and the CSR of the out-edges it walked (row
    pointers and cited nodes, by citing node in edge order). A node that
    never gets a level lies on a cycle.
    """
    ptr, cited = _csr(src, dst, n)
    waiting = np.bincount(dst, minlength=n)   # citing edges not yet removed
    level = np.flatnonzero(waiting == 0)
    levels, starts = [], [0]
    while level.size:
        levels.append(level)
        starts.append(starts[-1] + level.size)
        hit = cited[_segments(ptr, level)]
        np.subtract.at(waiting, hit, 1)
        freed = hit[waiting[hit] == 0]   # each freed node once per edge from the level
        freed.sort()
        level = np.concatenate((freed[:1], freed[1:][freed[1:] != freed[:-1]]))
    if starts[-1] != n:
        raise NetworkError("citation network contains a cycle")
    order = np.concatenate(levels) if levels else np.zeros(0, dtype=np.int64)
    return order, np.array(starts), ptr, cited


def _level_plan(ptr: np.ndarray, starts: np.ndarray) -> list[tuple]:
    """The sweep plan of a CSR over ranks whose levels begin at starts.

    One entry per level with at least one edge, in level order: the ranks
    of the level's nodes with neighbours, where each one's neighbours begin
    within the level's edges (its reduceat start), and the [first, last)
    range of the level's edges in the CSR array.
    """
    rows = np.flatnonzero(np.diff(ptr))            # the ranks with neighbours
    cut = np.searchsorted(rows, starts).tolist()   # level k holds rows[cut[k]:cut[k + 1]]
    edge = ptr[starts].tolist()                    # and the edges edge[k]:edge[k + 1]
    begin = ptr[rows]
    return [(rows[cut[k]:cut[k + 1]], begin[cut[k]:cut[k + 1]] - edge[k], edge[k], edge[k + 1])
            for k in range(len(cut) - 1) if cut[k] < cut[k + 1]]


def _sweep(plan: Iterable[tuple], adj: np.ndarray, values: np.ndarray, combine) -> np.ndarray:
    """Fill values level by level from each node's neighbours' values.

    values has one entry per node (in rank order); for each level of the
    plan, combine(gathered, starts) reduces the gathered neighbour entries
    of every node of the level with a neighbour, each node's run beginning
    at its entry of starts. Nodes without neighbours keep their entry.
    """
    for rows, starts, first, last in plan:
        values[rows] = combine(values[adj[first:last]], starts)
    return values


def _add_path_counts(gathered: np.ndarray, starts: np.ndarray) -> np.ndarray:
    # 1 + sum over neighbours of (1 + P), from entries holding 1 + P.
    return np.add.reduceat(gathered, starts) + 1


def _add_log_path_counts(gathered: np.ndarray, starts: np.ndarray) -> np.ndarray:
    # log(1 + sum over neighbours of (1 + P)), from entries holding log(1 + P).
    return np.logaddexp(0.0, np.logaddexp.reduceat(gathered, starts))


def compute_spnp(net: CitationNetwork, approximate: bool = False,
                 as_array: bool = False) -> dict | np.ndarray:
    """Exact SPNP per node; with approximate=True, natural-log values.

    Returned as a dict keyed by patent number, or with as_array=True as
    one array in node order (exact: an object array of Python ints),
    which makes no patent number. The log-space mode is for networks
    whose path counts overflow any practical exact computation; near-ties
    may rank differently there.
    """
    n = len(net._years)
    # Entries hold 1 + P_down and 1 + P_up as Python ints, so no sum is rounded
    # or wraps, and SPNP is their product; in log mode they hold the logs, and
    # SPNP is their sum.
    start, combine, join = ((np.zeros, _add_log_path_counts, np.add) if approximate
                            else (partial(np.ones, dtype=object), _add_path_counts,
                                  np.multiply))
    down = _sweep(net._out_plan[::-1], net._out, start(n), combine)
    # The up sweep's entries are let go once joined into down, in place, so
    # no third set of Python ints is ever made beside the two sweeps'.
    join(down, _sweep(net._in_plan, net._in, start(n), combine), out=down)
    spnp = down[net._rank]
    return spnp if as_array else dict(zip(net._names, spnp.tolist()))


def domain_centrality(domain_patents: Iterable[str], net: CitationNetwork,
                      rank_percentile: Mapping[str, float] | np.ndarray) -> dict:
    """Mean over domain patents of the mean percentile of their cited patents.

    rank_percentile maps patent numbers to percentiles, or is an array of
    every node's percentile in node order. Returned as "centrality", with
    two tallies: patents citing nothing contribute nothing (1/CB_i
    undefined) and are counted in "n_excluded_no_citations"; cited patents
    without a percentile (outside the scored corpus) are skipped and
    counted in "n_skipped_unknown_cited".
    """
    cited_by = [net._cited(node) if node >= 0 else []
                for node in net._nodes(sorted(set(domain_patents))).tolist()]
    if isinstance(rank_percentile, np.ndarray):
        # Only the cited nodes' percentiles become Python floats.
        cited = sorted(set(chain.from_iterable(cited_by)))
        score = dict(zip(cited, rank_percentile[cited].tolist()))
    else:
        score = {node: value for node, value in zip(net._nodes(list(rank_percentile)).tolist(),
                                                     rank_percentile.values()) if node >= 0}
    inner_means = []
    excluded = 0
    skipped = 0
    for cited in cited_by:
        scored = [value for value in map(score.get, cited) if value is not None]
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

    Centrality comes from the cohort percentiles of the whole network's
    exact SPNP (domain_centrality, whose tallies are reported with it),
    ranked on arrays. The citation percentiles rank the forward-citation
    counts of the collection's patents in the network by application-year
    cohort, so an excluded patent, dropped from the collection, stays a
    node but is not ranked. A domain patent is highly cited when its
    percentile is >= threshold, which must lie in (0, 1), and those
    patents drive Z.
    """
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0, 1)")
    numbers = sorted(p.patent_number for p in domain)
    years = net._application_years_of(numbers)
    numbers = [n for n in numbers if n in years]
    if not numbers:
        raise NetworkError("no domain patents present in the network")
    cohort = net._application_years_of(list(patents))
    citation_percentiles = midrank_percentiles(
        {n: patents[n].forward_citation_count for n in cohort}, cohort)
    percentile = midranks(compute_spnp(net, as_array=True), net._years)
    centrality = domain_centrality(numbers, net, percentile)
    flags = {n: v >= threshold for n, v in citation_percentiles.items()}
    z = compute_z(numbers, flags, years)
    return {"n_domain": len(numbers), **centrality, "z": z,
            "k2": predict_k2(centrality["centrality"], z),
            "n_highly_cited": sum(1 for n in numbers if flags.get(n, False)),
            "highly_cited_threshold": threshold}

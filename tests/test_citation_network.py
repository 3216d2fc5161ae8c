import bisect
import importlib.util
import math
import random
import sys
import tracemalloc
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cornrate import citation_network
from cornrate.citation_network import (CitationNetwork, NetworkError, compute_spnp,
                                       compute_z, domain_centrality, evaluate_k2,
                                       predict_k2)
from cornrate.core_data import (EDGE_COLUMNS, NODE_COLUMNS, Dataset, IngestError, PatentRecord,
                                without_patents)
from cornrate.ranking import midrank_percentiles, midranks


def chain_network():
    # A cites B cites C.
    return CitationNetwork({"A": 2002, "B": 2001, "C": 2000},
                           [("A", "B"), ("B", "C")])


def diamond_network():
    return CitationNetwork({"A": 2002, "B": 2001, "C": 2001, "D": 2000},
                           [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])


def past_int64_network():
    """A ladder whose rungs X_i, Y_i (i < 64) each cite both rungs X_i+1,
    Y_i+1, so 1 + P_down = 2**(64 - i) - 1 and rung 1 holds 2**63 - 1, the
    largest int64; and five nodes W0..W4 that also cite X1 and Y1, so one
    level sums fourteen such entries, past what an int64 holds."""
    years = {f"{rung}{i}": 2100 - i for i in range(64) for rung in "XY"}
    edges = [(f"{a}{i}", f"{b}{i + 1}") for i in range(63) for a in "XY" for b in "XY"]
    years.update({f"W{k}": 2100 for k in range(5)})
    edges += [(f"W{k}", f"{rung}1") for k in range(5) for rung in "XY"]
    return years, edges


def brute_force_spnp(years, edges):
    """Oracle: enumerate every directed path (single nodes included) and
    count, per node, how many paths contain it."""
    out = {n: [] for n in years}
    for citing, cited in edges:
        out[citing].append(cited)
    counts = {n: 0 for n in years}

    def extend(path):
        for node in path:
            counts[node] += 1
        for nxt in out[path[-1]]:
            extend(path + [nxt])

    for start in years:
        extend([start])
    return counts


def random_dag(rng, max_nodes=12):
    n = rng.randint(1, max_nodes)
    years = {f"N{i}": 2000 + rng.randint(0, 5) for i in range(n)}
    names = sorted(years)
    edges = []
    for i, citing in enumerate(names):
        for cited in names[i + 1:]:
            # Edges only toward strictly earlier-or-equal years and a
            # fixed node ordering, so the graph is acyclic.
            if years[cited] <= years[citing] and rng.random() < 0.3:
                edges.append((citing, cited))
    # Drop edges that would violate the year check via equality cycles:
    # the i<j ordering above already prevents cycles even on tied years.
    return years, edges


def dict_spnp(years, edges, approximate=False):
    """Oracle: SPNP by a per-node dict DP with Python ints over a Kahn order.

    With approximate=True the natural log of SPNP, by a sequential
    logaddexp over each node's neighbours.
    """
    out = {n: [] for n in years}
    into = {n: [] for n in years}
    for citing, cited in edges:
        out[citing].append(cited)
        into[cited].append(citing)
    indegree = {n: len(into[n]) for n in years}
    queue = deque(sorted(n for n, d in indegree.items() if d == 0))
    order = []   # citing before cited
    while queue:
        node = queue.popleft()
        order.append(node)
        for cited in out[node]:
            indegree[cited] -= 1
            if indegree[cited] == 0:
                queue.append(cited)
    assert len(order) == len(years), "oracle input must be acyclic"
    if approximate:
        def logaddexp(a, b):
            hi, lo = (a, b) if a >= b else (b, a)
            return hi + math.log1p(math.exp(lo - hi))

        log_down, log_up = {}, {}
        for node in reversed(order):
            acc = 0.0   # log(1): the empty path
            for cited in out[node]:
                acc = logaddexp(acc, log_down[cited])
            log_down[node] = acc
        for node in order:
            acc = 0.0
            for citing in into[node]:
                acc = logaddexp(acc, log_up[citing])
            log_up[node] = acc
        return {n: log_down[n] + log_up[n] for n in years}
    p_down, p_up = {}, {}
    for node in reversed(order):
        p_down[node] = sum(1 + p_down[cited] for cited in out[node])
    for node in order:
        p_up[node] = sum(1 + p_up[citing] for citing in into[node])
    return {n: (1 + p_down[n]) * (1 + p_up[n]) for n in years}


def loop_midrank_percentiles(values, cohort_of):
    """Oracle: ranking.midrank_percentiles by a per-cohort sort and scan over
    Python values, each run of equal values sharing its mid-rank."""
    cohorts = {}
    for key in values:
        cohorts.setdefault(cohort_of[key], []).append(key)
    result = {}
    for members in cohorts.values():
        size = len(members)
        ordered = sorted(members, key=lambda m: values[m])
        i = 0
        while i < size:
            j = i
            while j < size and values[ordered[j]] == values[ordered[i]]:
                j += 1
            percentile = (i + 0.5 * (j - i)) / size
            for m in ordered[i:j]:
                result[m] = percentile
            i = j
    return result


def large_random_dag(seed, n, mean_cited=3, mean_lag=50):
    """n patents over 20 application years, each citing up to 2*mean_cited
    patents at exponential lags in a hidden order, so of earlier or the
    same year (same-year edges included) and acyclic.

    Short lags make path counts overflow 64 bits within a few thousand
    nodes. Nodes and edges are listed shuffled.
    """
    rng = random.Random(seed)
    labels = [f"P{k}" for k in rng.sample(range(10 * n), n)]
    year = [2000 + i * 20 // n for i in range(n)]
    edges = [(labels[i], labels[j]) for i in range(1, n)
             for j in {max(0, i - 1 - int(rng.expovariate(1 / mean_lag)))
                       for _ in range(rng.randint(0, 2 * mean_cited))}]
    rng.shuffle(edges)
    listing = list(range(n))
    rng.shuffle(listing)
    return {labels[i]: year[i] for i in listing}, edges


class TestNetworkValidation:
    def test_self_edge(self):
        with pytest.raises(NetworkError, match="self-citation"):
            CitationNetwork({"A": 2000}, [("A", "A")])

    def test_duplicate_edge(self):
        with pytest.raises(NetworkError, match="duplicate"):
            CitationNetwork({"A": 2001, "B": 2000}, [("A", "B"), ("A", "B")])

    def test_unknown_endpoint(self):
        with pytest.raises(NetworkError, match="not in node set"):
            CitationNetwork({"A": 2001}, [("A", "B")])

    def test_backwards_in_time(self):
        with pytest.raises(NetworkError, match="applied after"):
            CitationNetwork({"A": 2000, "B": 2001}, [("A", "B")])

    def test_same_year_cycle(self):
        with pytest.raises(NetworkError, match="cycle"):
            CitationNetwork({"A": 2000, "B": 2000},
                            [("A", "B"), ("B", "A")])

    @pytest.mark.parametrize("edges, message", [
        ([("B", "A"), ("C", "C")], "applied after"),
        ([("A", "C"), ("B", "A"), ("A", "C")], "applied after"),
        ([("A", "C"), ("A", "C"), ("B", "A")], "duplicate edge A -> C"),
        ([("A", "X"), ("C", "C")], "endpoint X not in"),
        ([("Y", "A"), ("A", "X")], "endpoint Y not in"),
        ([("A", "C"), ("X", "X")], "self-citation on X"),
        ([("A", "C"), ("C", "C"), ("A", "X")], "self-citation on C"),
    ], ids=["year-before-self", "year-before-duplicate", "duplicate-before-year",
            "unknown-before-self", "unknown-citing", "unknown-self-edge",
            "self-before-unknown"])
    def test_first_bad_edge_is_reported(self, edges, message):
        with pytest.raises(NetworkError, match=message):
            CitationNetwork({"A": 2001, "B": 2000, "C": 2000}, edges)

    def test_cycle_inside_same_year_block(self):
        years, edges = large_random_dag(7, 2000)
        block = sorted((p for p, y in years.items() if y == 2010))[:3]
        edges += [(block[0], block[1]), (block[1], block[2]), (block[2], block[0])]
        edges = list(dict.fromkeys(edges))
        with pytest.raises(NetworkError, match="cycle"):
            CitationNetwork(years, edges)

    def test_from_files(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        nodes.write_text("patent_number,application_year\nA,2002\nB,2001\n")
        edges.write_text("citing_patent,cited_patent\nA,B\n")
        net = CitationNetwork.from_files(nodes, edges)
        assert net.application_years == {"A": 2002, "B": 2001}
        assert net.cited_patents("A") == ["B"]

    def test_from_files_missing(self, tmp_path):
        # A missing file is the IngestError of core_data.read_text, as for every input.
        nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
        with pytest.raises(IngestError, match="missing file: .*nodes.csv"):
            CitationNetwork.from_files(nodes, edges)
        nodes.write_text("patent_number,application_year\n1,2001\n2,2000\n")
        with pytest.raises(IngestError, match="missing file: .*edges.csv"):
            CitationNetwork.from_files(nodes, edges)


def network_outcome(nodes, edges):
    """What from_files makes of two files: the network's content, or its error."""
    try:
        net = CitationNetwork.from_files(nodes, edges)
    except Exception as exc:
        return type(exc), str(exc)
    return (list(net.application_years.items()),
            {p: net.cited_patents(p) for p in net.application_years},
            compute_spnp(net))


def both_paths(directory, nodes_text, edges_text):
    """Write the two files (text as UTF-8, or bytes as they are); return which
    of them the integer path reads (None when reading the header raises) and
    the outcome of from_files on each path."""
    nodes, edges = directory / "nodes.csv", directory / "edges.csv"
    for path, content in [(nodes, nodes_text), (edges, edges_text)]:
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    try:
        qualifies = tuple(citation_network._read_int_columns(path, columns) is not None
                          for path, columns in [(nodes, NODE_COLUMNS), (edges, EDGE_COLUMNS)])
    except IngestError:
        qualifies = None
    fast = network_outcome(nodes, edges)
    with mock.patch.object(citation_network, "_read_int_columns", return_value=None):
        slow = network_outcome(nodes, edges)
    return qualifies, fast, slow


NODES = "patent_number,application_year\n1000,1990\n1001,1991\n1002,1992\n1003,1992\n"
EDGES = "citing_patent,cited_patent\n1001,1000\n1002,1001\n1002,1000\n1003,1000\n"
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66a))))
SPARSE = {"1000": "4000000000", "1001": "70", "1002": "123456789012345678", "1003": "0"}


def sparse(text):
    for dense, far in SPARSE.items():
        text = text.replace(dense, far)
    return text


# name: (nodes.csv, edges.csv, whether the integer path reads each file)
FROM_FILES_CASES = {
    "plain": (NODES, EDGES, (True, True)),
    "bom": ("\ufeff" + NODES, "\ufeff" + EDGES, (True, True)),
    "crlf": (NODES.replace("\n", "\r\n"), EDGES.replace("\n", "\r\n"), (True, True)),
    "no-final-newline": (NODES.rstrip("\n"), EDGES.rstrip("\n"), (True, True)),
    "bare-cr": (NODES.replace("\n", "\r"), EDGES, (False, True)),
    "mixed-line-ends": (NODES, EDGES.replace("1001\n", "1001\r\n"), (True, True)),
    "bare-cr-in-edges": (NODES, EDGES.replace("1001\n", "1001\r"), (True, False)),
    "bom-crlf-no-final-newline": ("\ufeff" + NODES.replace("\n", "\r\n").rstrip(),
                                  "\ufeff" + EDGES.replace("\n", "\r\n").rstrip(),
                                  (True, True)),
    # Rows of one layout: the same rules hold when every row has the same width.
    "fixed-width-leading-zero": (NODES, EDGES.replace(",1000", ",0100"), (True, False)),
    "fixed-width-19-digits": (NODES.replace("\n100", "\n" + "9" * 15 + "100"),
                              EDGES.replace("100", "9" * 15 + "100"), (False, False)),
    "dot-separator": (NODES.replace("1001,", "1001."), EDGES, (False, True)),
    "non-utf-8-edge-row": (NODES, EDGES.encode() + b"1003,10\xff0\n", (True, False)),
    "non-utf-8-header": (NODES, b"citing_patent,cited\xff\n" + EDGES.encode()[27:],
                         (True, False)),
    "blank-line": (NODES.replace("1990\n", "1990\n\n"), EDGES + "\n", (False, False)),
    "quoted-id": (NODES.replace("1001,", '"1001",'), EDGES.replace("\n1001,", '\n"1001",'),
                  (False, False)),
    "quoted-header": ('"patent_number",application_year' + NODES[NODES.index("\n"):], EDGES,
                      (False, True)),
    "leading-zero": (NODES, EDGES.replace(",1000", ",01000"), (True, False)),
    "leading-zero-year": (NODES.replace("1990", "01990"), EDGES, (False, True)),
    "space": (NODES.replace("1001,", " 1001,"), EDGES.replace(",1001", ", 1001"),
              (False, False)),
    "plus": (NODES.replace("1001,", "+1001,"), EDGES.replace(",1001", ",+1001"),
             (False, False)),
    "underscore": (NODES.replace("1001", "1_001"), EDGES.replace("1001", "1_001"),
                   (False, False)),
    "non-ascii-digits": (NODES.replace("1001", "1001".translate(ARABIC_INDIC)),
                         EDGES.replace("1001", "1001".translate(ARABIC_INDIC)),
                         (False, False)),
    "negative-year": (NODES.replace("1990", "-1990"), EDGES, (False, True)),
    "18-digits": (NODES.replace("1001", "1" * 18), EDGES.replace("1001", "1" * 18),
                  (True, True)),
    "19-digits": (NODES.replace("1001", "1" * 19), EDGES.replace("1001", "1" * 19),
                  (False, False)),
    "25-digits": (NODES.replace("1001", "9" * 25), EDGES.replace("1001", "9" * 25),
                  (False, False)),
    "reversed-header": ("application_year,patent_number\n1990,1000\n1991,1001\n1992,1002\n"
                        "1992,1003\n",
                        "cited_patent,citing_patent\n1000,1001\n1001,1002\n1000,1002\n"
                        "1000,1003\n", (True, True)),
    "extra-column": ("patent_number,application_year,x\n1000,1990,7\n1001,1991,0\n"
                     "1002,1992,7\n1003,1992,7\n", EDGES, (True, True)),
    # A repeated column name reads its last column.
    "repeated-column": ("application_year,patent_number,Application_Year\n1,1000,1990\n"
                        "1,1001,1991\n1,1002,1992\n1,1003,1992\n", EDGES, (True, True)),
    "upper-case-header": (NODES.upper(), EDGES.upper(), (True, True)),
    "missing-column": (NODES.replace("patent_number", "patent_no"), EDGES, None),
    "short-row": (NODES, EDGES + "1003\n", (True, False)),
    "long-row": (NODES + "1004,1993,1\n", EDGES, (False, True)),
    "empty-field": (NODES, EDGES + "1003,\n", (True, False)),
    "duplicate-node": (NODES + "1001,1980\n", EDGES, (True, True)),
    "unknown-endpoint": (NODES, EDGES + "1003,1009\n", (True, True)),
    "unknown-citing": (NODES, EDGES + "999,1000\n", (True, True)),
    "self-edge": (NODES, EDGES + "1002,1002\n", (True, True)),
    "duplicate-edge": (NODES, EDGES + "1002,1001\n", (True, True)),
    "year-violation": (NODES, EDGES + "1000,1003\n", (True, True)),
    "cycle": (NODES, EDGES + "1003,1002\n1002,1003\n", (True, True)),
    "header-only-edges": (NODES, "citing_patent,cited_patent\n", (True, True)),
    "header-only-nodes": ("patent_number,application_year", EDGES, (True, True)),
    "empty-edges": (NODES, "", None),
    "sparse-ids": (sparse(NODES), sparse(EDGES), (True, True)),
    "sparse-unknown-endpoint": (sparse(NODES), sparse(EDGES) + "70,5\n", (True, True)),
    # Python 3.11's csv reads a NUL, and "1000\x00" is then a node of its own;
    # on 3.10 both paths raise the csv error.
    "nul-suffixed-id": (NODES + "1000\x00,1989\n", EDGES + "1000,1000\x00\n", (False, False)),
    "us-prefixed-edges": (NODES, EDGES.replace("\n1", "\nUS1").replace(",1", ",US1"),
                          (True, False)),
}


class TestFromFilesFastPath:
    """from_files gives the same network, or the same error, on the integer
    path as on the csv.reader path."""

    @pytest.mark.parametrize("name", FROM_FILES_CASES)
    def test_same_as_csv_reader(self, tmp_path, name):
        nodes_text, edges_text, expected = FROM_FILES_CASES[name]
        qualifies, fast, slow = both_paths(tmp_path, nodes_text, edges_text)
        assert qualifies == expected
        assert fast == slow

    def test_repeated_node_id(self, tmp_path):
        # Both paths raise, naming the file, where the last year used to win.
        qualifies, fast, slow = both_paths(tmp_path, NODES + "1001,1995\n", EDGES)
        assert qualifies == (True, True)
        assert fast == slow == (IngestError,
                                f"{tmp_path / 'nodes.csv'}: duplicate patent_number 1001")

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="csv reads NUL from Python 3.11")
    def test_nul_suffixed_id_is_another_node(self, tmp_path):
        nodes_text, edges_text, _ = FROM_FILES_CASES["nul-suffixed-id"]
        _, fast, _ = both_paths(tmp_path, nodes_text, edges_text)
        years, cited, _ = fast
        assert years[-1] == ("1000\x00", 1989)
        assert cited["1000"] == ["1000\x00"]

    def test_unknown_integer_end_is_not_read_again(self, tmp_path):
        # Both files are integers, so the error comes without read_table.
        (tmp_path / "nodes.csv").write_text(NODES)
        (tmp_path / "edges.csv").write_text(EDGES + "1003,1009\n")
        with mock.patch.object(citation_network, "read_table", side_effect=AssertionError):
            with pytest.raises(NetworkError, match="^edge endpoint 1009 not in node set$"):
                CitationNetwork.from_files(tmp_path / "nodes.csv", tmp_path / "edges.csv")

    def test_fixed_rows_read_only_bodies_of_one_row_layout(self):
        layout = np.array([ord(","), ord("\n")], dtype=np.uint8)
        read = citation_network._read_fixed_rows
        assert read(b"10,1990\n11,1991\n", 0, layout, [1, 0]).tolist() == [[1990, 10], [1991, 11]]
        assert read(b"10,1990\n9,1991\n", 0, layout, [0, 1]) is None
        assert read(b"10,1990\n1,11991\n", 0, layout, [0, 1]) is None
        # The body is read where it begins, after the header, without a copy.
        assert read(b"a,b\n10,1990\n11,1991\n", 4, layout, [1]).tolist() == [[1990], [1991]]

    def test_undecodable_byte_names_its_line(self, tmp_path):
        # The integer path leaves the file to read_table, whose error names the line.
        _, fast, slow = both_paths(tmp_path, NODES, EDGES.encode() + b"1003,10\xff0\n")
        assert fast == slow
        assert fast[0] is IngestError
        assert fast[1].startswith(f"{tmp_path / 'edges.csv'}, line 6: 'utf-8' codec")

    def test_plain_files_build(self, tmp_path):
        _, fast, _ = both_paths(tmp_path, NODES, EDGES)
        years, cited, spnp = fast
        assert years == [("1000", 1990), ("1001", 1991), ("1002", 1992), ("1003", 1992)]
        assert cited["1002"] == ["1001", "1000"]
        assert spnp == {"1000": 5, "1001": 4, "1002": 4, "1003": 2}

    @pytest.mark.parametrize("step, dense", [(2, True), (500, False)],
                             ids=["dense", "sparse"])
    def test_positions_both_lookups(self, step, dense):
        # Ids spanning at most 4 per id take the direct table, others the
        # binary search; 101 lies inside the span but is no id, and -1 is
        # the key of a patent number that is no integer id.
        ids = np.arange(100, 100 + 40 * step, step)
        assert (ids.max() - ids.min() < 4 * ids.size) == dense
        ends = ids[[[3, 0], [39, 3]]]
        assert citation_network._positions(ids[::-1])(ends).tolist() == [[36, 39], [0, 36]]
        for missing in (-1, 99, 101, ids.max() + 1):
            found = citation_network._positions(ids)(np.array([[ids[0], missing]]))
            assert found.tolist() == [[0, -1]]

    def test_positions_of_strings(self):
        # Patent-number strings are kept as Python str, so a trailing NUL
        # still makes another id (a fixed-width numpy string would drop it).
        ids = np.array(["A", "A\x00", "US7"], dtype=object)
        ends = np.array([["A\x00", "A"], ["US7", "7"]], dtype=object)
        assert citation_network._positions(ids)(ends).tolist() == [[1, 0], [2, -1]]
        assert citation_network._positions(ids[:0])(ends).tolist() == [[-1, -1], [-1, -1]]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_as_csv_reader_fuzzed(self, tmp_path_factory, data):
        draw = data.draw
        if draw(st.booleans()):
            ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True))
        else:
            ids = draw(st.lists(st.integers(0, 10 ** 20), min_size=1, max_size=12,
                                unique=True))
        ids += draw(st.lists(st.sampled_from(ids), max_size=2))   # duplicate node ids
        years = [draw(st.integers(1990, 1993)) for _ in ids]
        known = dict(zip(ids, years))
        pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                              max_size=20))
        if draw(st.booleans()):
            # Only edges that keep the network valid: to a strictly earlier
            # (year, id), without repeats.
            pairs = list(dict.fromkeys((a, b) for a, b in pairs
                                       if (known[a], a) > (known[b], b)))
        pairs += draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(0, 70)),
                               max_size=1))   # an end that may be unknown
        plain = draw(st.booleans())
        spellings = [str, lambda v: f"0{v}", lambda v: f" {v}", lambda v: f"+{v}",
                     lambda v: f'"{v}"', lambda v: str(v).translate(ARABIC_INDIC),
                     lambda v: f"{str(v)[0]}_{str(v)[1:]}" if v > 9 else str(v)]

        def field(value):
            return str(value) if plain else draw(st.sampled_from(spellings))(value)

        def csv_text(header, rows):
            newline = draw(st.sampled_from(["\n", "\r\n"]))
            lines = [header] + [",".join(map(field, row)) for row in rows]
            if not plain and lines[1:] and draw(st.booleans()):
                lines.insert(draw(st.integers(1, len(lines))), "")
            if not plain and lines[1:] and draw(st.booleans()):
                lines[-1] += ",1"   # a long row
            text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
            return draw(st.sampled_from(["", "\ufeff"])) + text

        if draw(st.booleans()):
            nodes_text = csv_text("application_year,patent_number",
                                  [(y, i) for i, y in zip(ids, years)])
        else:
            nodes_text = csv_text("patent_number,application_year", zip(ids, years))
        edges_text = csv_text("citing_patent,cited_patent", pairs)
        _, fast, slow = both_paths(tmp_path_factory.mktemp("net"), nodes_text, edges_text)
        assert fast == slow


def test_build_and_exact_spnp_memory(tmp_path):
    # The traced peak of from_files and exact SPNP, as a multiple of the edge
    # file's size, on the benchmark's generator at about 10^5 edges: 4.0 with
    # the body read in place, int32 node numbers and the product formed in
    # place, 5.5 before. numpy reports its buffers to tracemalloc, so the
    # multiple does not depend on the machine.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    generate.generate_network(1, tmp_path, n_nodes=22_000)
    size = (tmp_path / "edges.csv").stat().st_size
    tracemalloc.start()
    try:
        net = CitationNetwork.from_files(tmp_path / "nodes.csv", tmp_path / "edges.csv")
        assert len(net._in) > 95_000
        compute_spnp(net, as_array=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.0 * size, peak / size


class TestSpnp:
    def test_chain(self):
        assert compute_spnp(chain_network()) == {"A": 3, "B": 4, "C": 3}

    def test_diamond(self):
        assert compute_spnp(diamond_network()) == {"A": 5, "B": 4, "C": 4, "D": 5}

    def test_isolated_node(self):
        net = CitationNetwork({"A": 2000}, [])
        assert compute_spnp(net) == {"A": 1}

    def test_values_are_exact_ints(self):
        for v in compute_spnp(diamond_network()).values():
            assert type(v) is int

    def test_int64_sums_switch_to_python_ints_before_they_overflow(self):
        # Rung 1 holds 2**63 - 1, the largest int64. Level 0 (X0, Y0, W0..W4)
        # sums fourteen such entries in one reduceat, which must not wrap.
        years, edges = past_int64_network()
        spnp = compute_spnp(CitationNetwork(years, edges))
        assert spnp == dict_spnp(years, edges)
        assert {spnp[p] for p in ["X0", "Y0"] + [f"W{k}" for k in range(5)]} == {2 ** 64 - 1}
        assert spnp["X1"] == (2 ** 63 - 1) * 8   # cited by X0, Y0 and W0..W4

    @pytest.mark.parametrize("network", [diamond_network, past_int64_network])
    def test_exact_values_are_python_ints(self, network):
        # Counts below and past the int64 range alike are Python ints.
        net = network() if network is diamond_network else CitationNetwork(*network())
        assert all(type(v) is int for v in compute_spnp(net).values())
        array = compute_spnp(net, as_array=True)
        assert array.dtype == object
        assert all(type(v) is int for v in array.tolist())

    def test_chain_from_arrays(self):
        # Node i cites node i - 1, so P_down(i) = i, P_up(i) = k - 1 - i and
        # SPNP(i) = (i + 1)(k - i); every level holds one node.
        k = 5000
        net = CitationNetwork(np.column_stack([np.arange(k), np.arange(1000, 1000 + k)]),
                              np.column_stack([np.arange(1, k), np.arange(k - 1)]))
        expected = [(i + 1) * (k - i) for i in range(k)]
        exact = compute_spnp(net, as_array=True).tolist()
        assert exact == expected
        assert all(type(v) is int for v in exact)
        approx = compute_spnp(net, approximate=True, as_array=True)
        assert np.abs(approx - np.log(expected)).max() < 1e-9

    def test_matches_brute_force_on_random_dags(self):
        rng = random.Random(20160826)
        for _ in range(120):
            years, edges = random_dag(rng)
            net = CitationNetwork(years, edges)
            assert compute_spnp(net) == brute_force_spnp(years, edges)

    def test_exact_counts_survive_big_networks(self):
        # 64-node widget whose path counts exceed float precision.
        years = {f"N{i}": 2064 - i for i in range(64)}
        edges = [(f"N{i}", f"N{j}") for i in range(64) for j in range(i + 1, 64)]
        spnp = compute_spnp(CitationNetwork(years, edges))
        assert spnp["N0"] == 2 ** 63   # 1 + sum over subsets below
        assert spnp["N0"] > 2 ** 53    # unrepresentable exactly in float64

    @pytest.mark.parametrize("seed, n", [(1, 1000), (2, 3000), (3, 10000)])
    def test_matches_dict_dp_on_large_random_dags(self, seed, n):
        years, edges = large_random_dag(seed, n)
        net = CitationNetwork(years, edges)
        exact = compute_spnp(net)
        assert list(exact) == list(years)
        assert exact == dict_spnp(years, edges)
        approx = compute_spnp(net, approximate=True)
        oracle = dict_spnp(years, edges, approximate=True)
        for p in years:
            assert approx[p] == pytest.approx(oracle[p], abs=1e-9)
            assert approx[p] == pytest.approx(math.log(exact[p]), abs=1e-9)

    def test_counts_grow_past_2_199(self):
        # Complete 200-node DAG: 1 + P_down(N_i) = 2**(199 - i) and
        # 1 + P_up(N_i) = 2**i, so every node's SPNP is 2**199.
        years = {f"N{i}": 2200 - i for i in range(200)}
        edges = [(f"N{i}", f"N{j}") for i in range(200) for j in range(i + 1, 200)]
        spnp = compute_spnp(CitationNetwork(years, edges))
        assert set(spnp.values()) == {2 ** 199}
        assert spnp == dict_spnp(years, edges)
        assert all(type(v) is int for v in spnp.values())

    def test_tie_heavy_cohort_percentiles(self):
        # C0 tops a complete 71-node DAG (1 + P_down = 2**70) and is cited by
        # two leaves (1 + P_up = 3); Y is cited by every node of a complete
        # 70-node DAG (1 + P_up = 2**70) and cites two sinks (1 + P_down = 3).
        # Their SPNPs are the equal products 2**70 * 3 and 3 * 2**70. Forty
        # leaves citing one sink all have SPNP 2, and twenty isolated nodes 1.
        years = {f"C{i}": 2000 for i in range(71)}
        edges = [(f"C{i}", f"C{j}") for i in range(71) for j in range(i + 1, 71)]
        years.update({"L1": 2001, "L2": 2001, "Y": 2000, "S1": 2000, "S2": 2000, "T": 2000})
        edges += [("L1", "C0"), ("L2", "C0"), ("Y", "S1"), ("Y", "S2")]
        years.update({f"U{i}": 2001 for i in range(70)})
        edges += [(f"U{i}", f"U{j}") for i in range(70) for j in range(i + 1, 70)]
        edges += [(f"U{i}", "Y") for i in range(70)]
        years.update({f"M{i}": 2001 for i in range(40)})
        edges += [(f"M{i}", "T") for i in range(40)]
        years.update({f"I{i}": 2000 + i % 2 for i in range(20)})
        net = CitationNetwork(years, edges)
        spnp = compute_spnp(net)
        assert spnp == dict_spnp(years, edges)
        assert spnp["C0"] == spnp["Y"] == 3 * 2 ** 70 > 2 ** 63
        assert {spnp[f"M{i}"] for i in range(40)} == {2}
        pct = midrank_percentiles(spnp, years)
        # Oracle: (count strictly below + 0.5 * count equal) / size, from
        # each cohort's sorted values.
        expected = {}
        for year in set(years.values()):
            ordered = sorted(spnp[p] for p in years if years[p] == year)
            for p in years:
                if years[p] == year:
                    below = bisect.bisect_left(ordered, spnp[p])
                    equal = bisect.bisect_right(ordered, spnp[p]) - below
                    expected[p] = (below + 0.5 * equal) / len(ordered)
        assert pct == expected
        assert len({pct[f"M{i}"] for i in range(40)}) == 1
        assert pct["C0"] == pct["Y"]

    def test_log_mode_agrees_with_exact(self):
        rng = random.Random(3)
        for _ in range(30):
            years, edges = random_dag(rng)
            net = CitationNetwork(years, edges)
            exact = compute_spnp(net)
            approx = compute_spnp(net, approximate=True)
            for n in years:
                assert approx[n] == pytest.approx(math.log(exact[n]), abs=1e-9)


def array_midranks(values, cohorts):
    """ranking.midranks on lists, as a dict like midrank_percentiles gives."""
    percentile = midranks(np.array(values, dtype=object), np.array(cohorts, dtype=np.int64))
    return dict(enumerate(percentile.tolist()))


def oracle_midranks(values, cohorts):
    return loop_midrank_percentiles(dict(enumerate(values)), dict(enumerate(cohorts)))


def bits(percentiles):
    return {k: v.hex() for k, v in percentiles.items()}


class TestArrayMidranks:
    """ranking.midranks against the loop oracle."""

    def test_equal_floats_ordered_by_exact_ints(self):
        # 2**60 and 2**60 + 1 are one float64; only the exact order separates them.
        big = 2 ** 60
        assert float(big) == float(big + 1)
        values = [big + 1, big, 5, big + 1, big, big + 2, 3 * 2 ** 70, 3 * 2 ** 70 + 1]
        cohorts = [2000] * 6 + [2001] * 2
        pct = array_midranks(values, cohorts)
        assert bits(pct) == bits(oracle_midranks(values, cohorts))
        assert pct[1] == pct[4] < pct[0] == pct[3] < pct[5]
        assert pct[6] < pct[7]
        # So are equal floats of negative ints.
        assert midrank_percentiles({"A": -big, "B": -big - 1}, {"A": 1, "B": 1}) == \
            {"A": 0.75, "B": 0.25}

    def test_counts_past_float_range(self):
        # Counts of 2**1024 and more overflow float64 and share the key inf;
        # they must still rank exactly, among each other and above the rest.
        huge = 2 ** 1100
        values = [huge + 1, huge, 2 ** 1024, 2 ** 1024 - 1, 1, 2, huge, 7, 2 ** 1024 - 1]
        cohorts = [1990] * 6 + [1991] * 3
        with pytest.raises(OverflowError):
            np.array(values, dtype=object).astype(np.float64)
        pct = array_midranks(values, cohorts)
        assert bits(pct) == bits(oracle_midranks(values, cohorts))
        assert pct[4] < pct[5] < pct[3] < pct[2] < pct[1] < pct[0]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.integers(1, 4),
                  st.sampled_from([2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 53 + 2]),
                  st.integers(2 ** 60, 2 ** 60 + 3),
                  st.integers(2 ** 200, 2 ** 200 + 2),
                  st.integers(2 ** 1100 - 2, 2 ** 1100 + 2),
                  st.integers(1, 2 ** 1100),
                  st.sampled_from([-(2 ** 53) + 1, -(2 ** 53), -(2 ** 53) - 1, -(2 ** 53) - 2]),
                  st.integers(-(2 ** 60) - 3, -(2 ** 60)),
                  st.integers(-(2 ** 1100) - 2, -(2 ** 1100) + 2)),
        st.integers(1998, 2001)), min_size=1, max_size=40))
    def test_same_bits_as_midrank_percentiles(self, rows):
        values, cohorts = map(list, zip(*rows))
        assert bits(array_midranks(values, cohorts)) == bits(oracle_midranks(values, cohorts))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2 ** 1024, 2 ** 1100 + 2), st.lists(st.tuples(
        st.one_of(st.integers(0, 8),
                  st.integers(2 ** 1024 - 2, 2 ** 1024 + 2),
                  st.integers(0, 2 ** 2100),
                  st.integers(-(2 ** 2100), -(2 ** 1024)),
                  st.floats(-8.0, 8.0),
                  st.sampled_from([2.0 ** 53, 2.0 ** 60, 2.0 ** 1000, 1e308, 5e-324, math.inf,
                                   -(2.0 ** 53), -(2.0 ** 1000), -1e308, -5e-324, -math.inf])),
        st.integers(1998, 2000)), max_size=40))
    def test_ints_past_float_range_among_floats(self, huge, rows):
        # Ints that overflow float64, ranked with floats: they share the key inf
        # of their sign with the infinities and must still rank exactly.
        values, cohorts = map(list, zip((huge, 1998), *rows))
        assert bits(array_midranks(values, cohorts)) == bits(oracle_midranks(values, cohorts))

    def test_exact_spnp_of_a_large_dag(self):
        years, edges = large_random_dag(5, 3000)
        net = CitationNetwork(years, edges)
        spnp = compute_spnp(net)
        assert max(spnp.values()).bit_length() > 64
        expected = loop_midrank_percentiles(spnp, years)
        percentile = midranks(compute_spnp(net, as_array=True), net._years)
        assert bits(dict(zip(years, percentile.tolist()))) == bits(expected)


class TestMidrankPercentilesAdapter:
    """ranking.midrank_percentiles, which ranks mappings by midranks, against the loop oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.floats(-200.0, 200.0),
                  st.sampled_from([2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 60,
                                   2.0 ** 60 + 2 ** 8, 2.0 ** 1000, 1e308]),
                  st.sampled_from([-(2.0 ** 53) + 1, -(2.0 ** 53), -(2.0 ** 53) - 2, -(2.0 ** 60),
                                   -(2.0 ** 60) - 2 ** 8, -(2.0 ** 1000), -1e308])),
        st.sampled_from([1998, 1999, "2000", None])), min_size=1, max_size=40))
    def test_floats_same_bits_as_the_loop(self, rows):
        # Floats as log SPNP gives them, ties at and above 2**53 among them, and
        # cohorts of any hashable.
        values = {f"P{k}": v for k, (v, _) in enumerate(rows)}
        cohort_of = {f"P{k}": c for k, (_, c) in enumerate(rows)}
        assert bits(midrank_percentiles(values, cohort_of)) == \
            bits(loop_midrank_percentiles(values, cohort_of))

    def test_log_spnp_of_a_large_dag(self):
        years, edges = large_random_dag(5, 3000)
        logs = compute_spnp(CitationNetwork(years, edges), approximate=True)
        assert len(set(logs.values())) < len(logs)
        assert bits(midrank_percentiles(logs, years)) == \
            bits(loop_midrank_percentiles(logs, years))

    def test_empty_mapping(self):
        assert midrank_percentiles({}, {}) == {}

    def test_int_past_float_range_among_floats(self):
        # Small ints and floats keep their order beside an int that overflows float64.
        values = {"A": 2 ** 1100, "B": 6.5, "C": 7, "D": 0.25}
        cohort_of = dict.fromkeys(values, 1990)
        ranks = midrank_percentiles(values, cohort_of)
        assert ranks == loop_midrank_percentiles(values, cohort_of)
        assert ranks["D"] < ranks["B"] < ranks["C"] < ranks["A"]
        # Likewise below -2**1024.
        values = {"A": -(2 ** 1100), "B": 6.5, "C": 7, "D": 0.25}
        ranks = midrank_percentiles(values, cohort_of)
        assert ranks == loop_midrank_percentiles(values, cohort_of)
        assert ranks["A"] < ranks["D"] < ranks["B"] < ranks["C"]

    def test_one_member_cohorts(self):
        values, cohort_of = {"A": 2 ** 1100, "B": 3, "C": 7}, {"A": 1990, "B": 1991, "C": 1992}
        ranks = midrank_percentiles(values, cohort_of)
        assert ranks == loop_midrank_percentiles(values, cohort_of)
        assert ranks == {"A": 0.5, "B": 0.5, "C": 0.5}


class TestCentrality:
    def test_excludes_patents_without_citations(self):
        net = diamond_network()
        pct = midrank_percentiles(compute_spnp(net), net.application_years)
        result = domain_centrality(["A", "D"], net, pct)
        # D cites nothing: excluded with a tally; only A enters the mean.
        assert result["n_excluded_no_citations"] == 1
        assert result["centrality"] == pytest.approx((pct["B"] + pct["C"]) / 2)

    def test_skips_unscored_cited(self):
        net = chain_network()
        pct = {"C": 0.5}   # B has no percentile
        result = domain_centrality(["A", "B"], net, pct)
        assert result["n_skipped_unknown_cited"] == 1   # A -> B skipped
        assert result["centrality"] == pytest.approx(0.5)    # only B -> C scored

    def test_all_unusable_raises(self):
        net = CitationNetwork({"A": 2000}, [])
        with pytest.raises(NetworkError, match="no domain patent"):
            domain_centrality(["A"], net, {})


def _record(number, forward):
    return PatentRecord(number, f"Inbred corn line X{number}", "A", 1999, 2001,
                        forward_citation_count=forward)


def fan_domain():
    """Five patents of 2001, with forward counts 0 to 4, each citing one of 2000."""
    net = CitationNetwork({"X": 2000, **{f"P{i}": 2001 for i in range(5)}},
                          [(f"P{i}", "X") for i in range(5)])
    patents = {f"P{i}": _record(f"P{i}", i) for i in range(5)}
    return net, patents


class TestHighlyCitedAndZ:
    def test_threshold_inclusive(self):
        # P4's cohort percentile is 4.5 / 5 = 0.9, and P3's 0.7.
        net, patents = fan_domain()
        counts = {threshold: evaluate_k2(net, patents, patents.values(),
                                         threshold)["n_highly_cited"]
                  for threshold in (0.7, 0.9, 0.91)}
        assert counts == {0.7: 2, 0.9: 1, 0.91: 0}

    def test_threshold_validated(self):
        net, patents = fan_domain()
        for threshold in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="threshold"):
                evaluate_k2(net, patents, patents.values(), threshold)

    def test_z_worked_example(self):
        # Counts 1, 0, 1, 2 over 2000-2003: cumulative 1, 1, 2, 4.
        years = {f"P{i}": y for i, y in enumerate(
            [2000, 2001, 2002, 2003, 2003])}
        flags = {"P0": True, "P2": True, "P3": True, "P4": True}
        z = compute_z(years, flags, years)
        assert z == pytest.approx(0.48520, abs=1e-5)

    def test_z_zero_without_highly_cited(self):
        years = {"P0": 2000, "P1": 2001}
        assert compute_z(years, {}, years) == 0.0

    def test_z_starts_at_first_hit(self):
        # Hits only in the final year: single usable year, slope 0.
        years = {"P0": 2000, "P1": 2005}
        assert compute_z(years, {"P1": True}, years) == 0.0

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=10))
    def test_z_nonnegative_for_cumulative_counts(self, counts):
        # Cumulative counts never decrease, so the log-linear slope >= 0.
        years = {}
        flags = {}
        idx = 0
        for offset, c in enumerate(counts):
            for _ in range(c):
                name = f"P{idx}"
                years[name] = 2000 + offset
                flags[name] = True
                idx += 1
        years[f"P{idx}"] = 2000 + len(counts) - 1  # pin the last domain year
        z = compute_z(years, flags, years)
        assert z >= -1e-12


class TestPredictK2:
    def test_zero_inputs(self):
        assert predict_k2(0.0, 0.0) == pytest.approx(math.exp(-5.8486), abs=1e-12)

    def test_worked_example(self):
        assert predict_k2(0.3261, 0.0) == pytest.approx(0.015005, abs=5e-6)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_positive_and_monotone(self, c, z):
        assert predict_k2(c, z) > 0
        assert predict_k2(c + 0.01, z) > predict_k2(c, z)
        assert predict_k2(c, z + 0.01) > predict_k2(c, z)


class TestEvaluateDomain:
    """evaluate_k2 on one domain of a network."""

    def test_end_to_end(self):
        net, patents = fan_domain()
        result = evaluate_k2(net, patents, patents.values(), 0.9)
        assert result["n_domain"] == 5
        # Every domain patent cites only X, alone in its cohort; all hits fall in 2001.
        assert (result["centrality"], result["z"]) == (0.5, 0.0)
        assert result["k2"] == pytest.approx(
            predict_k2(result["centrality"], result["z"]), abs=1e-15)

    def test_external_percentiles_drive_flags(self):
        # Z comes from the cohort percentiles of the collection's forward counts.
        net = CitationNetwork({"A": 2002, "B": 2001, "C": 2000, "D": 2001},
                              [("A", "B"), ("B", "C"), ("D", "C")])
        patents = {"A": _record("A", 0), "B": _record("B", 5), "C": _record("C", 0),
                   "D": _record("D", 1)}
        result = evaluate_k2(net, patents, [patents["A"], patents["B"]], 0.75)
        assert (result["n_highly_cited"], result["z"]) == (1, 0.0)
        result = evaluate_k2(net, patents, [patents["A"], patents["B"]], 0.25)
        assert result["n_highly_cited"] == 2
        assert result["z"] == pytest.approx(math.log(2))

    def test_exclusions_and_patents_outside_the_network(self):
        # An excluded patent stays a network node but leaves the collection, so it
        # is neither in the domain nor ranked in its citation cohort.
        net, patents = fan_domain()
        kept = without_patents(Dataset(patents=patents), {"P4"}).patents
        domain = [*kept.values(), _record("OUT", 9)]
        result = evaluate_k2(net, kept, domain, 0.875)
        assert result["n_domain"] == 4
        # P3 ranks 3.5 / 4 among P0-P3; with P4 still ranked it would be 3.5 / 5.
        assert result["n_highly_cited"] == 1
        with pytest.raises(NetworkError, match="no domain patents"):
            evaluate_k2(net, kept, [_record("OUT", 9)], 0.9)

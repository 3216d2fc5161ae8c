import math
import random
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cornrate import citation_network
from cornrate.citation_network import (CentralityResult, CitationNetwork,
                                       NetworkError, classify_highly_cited,
                                       compute_spnp, compute_z,
                                       domain_centrality, evaluate_domain,
                                       predict_k2)
from cornrate.core_data import EDGE_COLUMNS, NODE_COLUMNS, IngestError
from cornrate.ranking import midrank_percentiles


def chain_network():
    # A cites B cites C.
    return CitationNetwork({"A": 2002, "B": 2001, "C": 2000},
                           [("A", "B"), ("B", "C")])


def diamond_network():
    return CitationNetwork({"A": 2002, "B": 2001, "C": 2001, "D": 2000},
                           [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])


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
        with pytest.raises(NetworkError, match="missing file"):
            CitationNetwork.from_files(tmp_path / "x.csv", tmp_path / "y.csv")


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
    """Write the two files; return which of them the integer path reads (None
    when reading the header raises) and the outcome of from_files on each path."""
    nodes, edges = directory / "nodes.csv", directory / "edges.csv"
    nodes.write_bytes(nodes_text.encode("utf-8"))
    edges.write_bytes(edges_text.encode("utf-8"))
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
        # binary search; 101 lies inside the span but is no id.
        ids = np.arange(100, 100 + 40 * step, step)
        assert (ids.max() - ids.min() < 4 * ids.size) == dense
        ends = ids[[[3, 0], [39, 3]]]
        assert citation_network._positions(ids[::-1], ends).tolist() == [[36, 39], [0, 36]]
        for missing in (99, 101, ids.max() + 1):
            assert citation_network._positions(ids, np.array([[ids[0], missing]])) is None

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

    def test_limbs_grow_past_2_199(self):
        # Complete 200-node DAG: 1 + P_down(N_i) = 2**(199 - i) and
        # 1 + P_up(N_i) = 2**i, so every node's SPNP is 2**199.
        years = {f"N{i}": 2200 - i for i in range(200)}
        edges = [(f"N{i}", f"N{j}") for i in range(200) for j in range(i + 1, 200)]
        spnp = compute_spnp(CitationNetwork(years, edges))
        assert set(spnp.values()) == {2 ** 199}
        assert spnp == dict_spnp(years, edges)
        assert all(type(v) is int for v in spnp.values())

    def test_log_mode_agrees_with_exact(self):
        rng = random.Random(3)
        for _ in range(30):
            years, edges = random_dag(rng)
            net = CitationNetwork(years, edges)
            exact = compute_spnp(net)
            approx = compute_spnp(net, approximate=True)
            for n in years:
                assert approx[n] == pytest.approx(math.log(exact[n]), abs=1e-9)


class TestCentrality:
    def test_excludes_patents_without_citations(self):
        net = diamond_network()
        pct = midrank_percentiles(compute_spnp(net), net.application_years)
        result = domain_centrality(["A", "D"], net, pct)
        # D cites nothing: excluded with a tally; only A enters the mean.
        assert result.n_used == 1
        assert result.n_excluded_no_citations == 1
        assert result.value == pytest.approx((pct["B"] + pct["C"]) / 2)

    def test_skips_unscored_cited(self):
        net = chain_network()
        pct = {"C": 0.5}   # B has no percentile
        result = domain_centrality(["A", "B"], net, pct)
        assert result.n_skipped_unknown_cited == 1   # A -> B skipped
        assert result.value == pytest.approx(0.5)    # only B -> C scored

    def test_all_unusable_raises(self):
        net = CitationNetwork({"A": 2000}, [])
        with pytest.raises(NetworkError, match="no domain patent"):
            domain_centrality(["A"], net, {})


class TestHighlyCitedAndZ:
    def test_threshold_inclusive(self):
        flags = classify_highly_cited({"a": 0.90, "b": 0.899}, threshold=0.90)
        assert flags == {"a": True, "b": False}

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            classify_highly_cited({}, threshold=1.0)

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
    def test_end_to_end(self):
        net = diamond_network()
        spnp_percentiles = midrank_percentiles(compute_spnp(net), net.application_years)
        result = evaluate_domain(net, ["A", "B", "C"], spnp_percentiles)
        assert isinstance(result, CentralityResult)
        assert result.k2 == pytest.approx(
            predict_k2(result.centrality.value, result.z), abs=1e-15)
        assert set(result.spnp) == {"A", "B", "C", "D"}

    def test_external_percentiles_drive_flags(self):
        net = chain_network()
        result = evaluate_domain(net, ["A", "B"],
                                 citation_percentiles={"A": 0.95, "B": 0.1},
                                 threshold=0.9)
        assert result.n_highly_cited == 1

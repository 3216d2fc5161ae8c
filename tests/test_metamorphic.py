"""Metamorphic relations: a report must not change under an input change it
does not depend on."""

import csv
import json
import random
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cornrate import citation_network
from cornrate.citation_network import CitationNetwork, compute_spnp
from cornrate.cli import main
from cornrate.ranking import midrank_percentiles
from tests.relabel import FILES, relabel
from tests.test_citation_network import large_random_dag, past_int64_network

FIXTURE = Path(str(resources.files("cornrate.data") / "synthetic"))
GOLDEN = Path(__file__).parent / "golden"
# predict k2 on the fixture, with the integer ids of its network files.
FIXTURE_K2 = (GOLDEN / "predict_k2.json").read_text(encoding="utf-8")
USDA = Path(str(resources.files("cornrate.data") / "usda_us_corn_yield.csv"))


def ingest(capsys, inputs: Path, store: Path) -> None:
    """Ingest the patent, trial and field-test CSVs in inputs into store."""
    assert main(["ingest", "--patents", str(inputs / "patents.csv"),
                 "--trials", str(inputs / "trials.csv"),
                 "--fieldtests", str(inputs / "fieldtests.csv"), "--schema", "illinois",
                 "--out", str(store), "--no-timestamp"]) == 0
    capsys.readouterr()


def predict_k2(capsys, inputs: Path, store: Path) -> str:
    """Ingest the five CSVs in inputs into store; `predict k2`'s stdout."""
    ingest(capsys, inputs, store)
    assert main(["predict", "k2", "--dataset", str(store), "--nodes", str(inputs / "nodes.csv"),
                 "--edges", str(inputs / "edges.csv"), "--no-timestamp"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_relabelled_shuffled_ids_give_the_same_k2(tmp_path, capsys, seed):
    # US-prefixed ids are no integers, so from_files reads both network files
    # with read_table into patent-number strings.
    relabel(FIXTURE, tmp_path / "us", seed=seed)
    for name, columns in [("nodes.csv", citation_network.NODE_COLUMNS),
                          ("edges.csv", citation_network.EDGE_COLUMNS)]:
        assert citation_network._read_int_columns(tmp_path / "us" / name, columns) is None
    assert predict_k2(capsys, tmp_path / "us", tmp_path / "ds") == FIXTURE_K2


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_relabelled_shuffled_ids_give_the_same_k1(tmp_path, capsys, seed):
    # K1 reads only the store, which must not depend on the spelling or order of ids.
    relabel(FIXTURE, tmp_path / "us", seed=seed)
    ingest(capsys, tmp_path / "us", tmp_path / "ds")
    assert main(["predict", "k1", "--dataset", str(tmp_path / "ds"), "--no-timestamp"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "predict_k1.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("network", ["large_random_dag", "past_int64_network"])
def test_reversed_time_keeps_every_spnp(network):
    # Reversing every edge and negating every year swaps P_down and P_up, so
    # (1 + P_down) * (1 + P_up) stays the same exact integer for every node.
    years, edges = large_random_dag(5, 3000) if network == "large_random_dag" \
        else past_int64_network()
    reversed_years = {patent: -year for patent, year in years.items()}
    reversed_edges = [(cited, citing) for citing, cited in edges]
    spnp = compute_spnp(CitationNetwork(years, edges))
    assert max(spnp.values()).bit_length() > 64
    assert compute_spnp(CitationNetwork(reversed_years, reversed_edges)) == spnp


def test_leading_zero_patent_number_matches_no_node(tmp_path, capsys):
    # 5000000 is a domain patent and a node; spelled 05000000 in the patent and
    # trial files it names no node, on the integer path as on the string path.
    inputs = tmp_path / "in"
    inputs.mkdir()
    for name in FILES:
        text = (FIXTURE / name).read_text(encoding="utf-8")
        if name in ("patents.csv", "trials.csv"):
            assert "\n5000000," in text
            text = text.replace("\n5000000,", "\n05000000,")
        (inputs / name).write_text(text, encoding="utf-8")
    integer_path = predict_k2(capsys, inputs, tmp_path / "a")
    with mock.patch.object(citation_network, "_read_int_columns", return_value=None):
        string_path = predict_k2(capsys, inputs, tmp_path / "b")
    assert integer_path == string_path
    assert json.loads(integer_path)["n_domain"] == json.loads(FIXTURE_K2)["n_domain"] - 1


def assert_close(got, want, rel: float) -> None:
    """got equals the JSON value want, except that each float may differ by rel, relative."""
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=rel, abs=0)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_close(got[key], want[key], rel)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_close(g, w, rel)
    else:
        assert got == want


@pytest.mark.parametrize("seed", [1, 2])
def test_permuted_shuffled_patents_give_the_same_regress(tmp_path, capsys, seed):
    # A random bijection of the patent numbers reorders the analysis table's
    # rows and with them every sum in the fits, so figures agree to rounding only.
    with open(FIXTURE / "patents.csv", newline="", encoding="utf-8") as f:
        numbers = [row["patent_number"] for row in csv.DictReader(f)]
    rng = random.Random(seed)
    permutation = dict(zip(numbers, rng.sample(numbers, len(numbers))))
    relabel(FIXTURE, tmp_path / "perm", prefix="", seed=seed, mapping=permutation)
    ingest(capsys, tmp_path / "perm", tmp_path / "ds")
    assert main(["regress", "--dataset", str(tmp_path / "ds"), "--family", "ols,poisson,negbin",
                 "--no-timestamp"]) == 0
    assert_close(json.loads(capsys.readouterr().out),
                 json.loads((GOLDEN / "regress.json").read_text(encoding="utf-8")), rel=1e-10)


@pytest.mark.parametrize("d", [-1930, 100, 5000])
def test_shifted_years_shift_only_t0(tmp_path, capsys, d):
    # The trend is fitted on year - mean(year); the series' mean year (1972.5)
    # and its shifts are exact in floating point, so only t0 moves, to the last bit.
    header, *lines = USDA.read_text(encoding="utf-8").splitlines()
    shifted = tmp_path / "usda.csv"
    shifted.write_text("\n".join([header, *(f"{int(year) + d},{value}" for year, value in
                                             (line.split(",") for line in lines))]) + "\n",
                       encoding="utf-8")
    want = (GOLDEN / "trend_usda-file.json").read_text(encoding="utf-8")
    assert want.count('"t0": 1930\n') == 1
    assert main(["trend", "--series", "usda-file", "--input", str(shifted), "--no-timestamp"]) == 0
    assert capsys.readouterr().out == want.replace('"t0": 1930\n', f'"t0": {1930 + d}\n')


# Cohort-ranked values: small counts and counts near 2**53, 2**60 and past float64's range.
RANKED_ROWS = st.lists(st.tuples(
    st.one_of(st.integers(0, 5),
              st.integers(2 ** 53 - 2, 2 ** 53 + 2),
              st.integers(2 ** 60, 2 ** 60 + 3),
              st.integers(2 ** 1100 - 2, 2 ** 1100 + 2)),
    st.integers(1998, 2001)), min_size=1, max_size=40)


def percentile_bits(values, cohort_of) -> dict:
    return {k: v.hex() for k, v in midrank_percentiles(values, cohort_of).items()}


@settings(max_examples=200, deadline=None)
@given(RANKED_ROWS, st.randoms(use_true_random=False))
def test_midranks_follow_a_bijection_of_keys_in_any_order(rows, rng):
    # A percentile belongs to its value and cohort, not to the key's name or place.
    keys = list(range(len(rows)))
    names = {k: f"US{n}" for k, n in zip(keys, rng.sample(range(10 ** 6), len(keys)))}
    rng.shuffle(keys)
    want = percentile_bits(dict(enumerate(v for v, _ in rows)),
                           dict(enumerate(c for _, c in rows)))
    got = percentile_bits({names[k]: rows[k][0] for k in keys},
                          {names[k]: rows[k][1] for k in keys})
    assert got == {names[k]: bits for k, bits in want.items()}


@settings(max_examples=200, deadline=None)
@given(RANKED_ROWS)
def test_midranks_keep_under_an_increasing_map(rows):
    # a * v + b with a > 0 keeps the order of exact integers, also past 2**53
    # and 2**1024, though it merges and splits their float64 roundings.
    cohort_of = {k: c for k, (_, c) in enumerate(rows)}
    want = percentile_bits({k: v for k, (v, _) in enumerate(rows)}, cohort_of)
    for a, b in [(3, 7), (1, 2 ** 53), (2 ** 70 + 1, -5)]:
        assert percentile_bits({k: a * v + b for k, (v, _) in enumerate(rows)}, cohort_of) == want


@settings(max_examples=200, deadline=None)
@given(RANKED_ROWS, st.integers(-10 ** 6, 10 ** 6))
def test_midranks_keep_under_shifted_cohort_years(rows, d):
    values = {k: v for k, (v, _) in enumerate(rows)}
    assert percentile_bits(values, {k: c + d for k, (_, c) in enumerate(rows)}) == \
        percentile_bits(values, {k: c for k, (_, c) in enumerate(rows)})

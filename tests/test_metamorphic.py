"""Metamorphic relations: a report must not change under an input change it
does not depend on."""

import json
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest

from cornrate import citation_network
from cornrate.cli import main
from tests.relabel import FILES, relabel

FIXTURE = Path(str(resources.files("cornrate.data") / "synthetic"))
# predict k2 on the fixture, with the integer ids of its network files.
FIXTURE_K2 = (Path(__file__).parent / "golden" / "predict_k2.json").read_text(encoding="utf-8")


def predict_k2(capsys, inputs: Path, store: Path) -> str:
    """Ingest the five CSVs in inputs into store; `predict k2`'s stdout."""
    assert main(["ingest", "--patents", str(inputs / "patents.csv"),
                 "--trials", str(inputs / "trials.csv"),
                 "--fieldtests", str(inputs / "fieldtests.csv"), "--schema", "illinois",
                 "--out", str(store), "--no-timestamp"]) == 0
    capsys.readouterr()
    assert main(["predict", "k2", "--dataset", str(store), "--nodes", str(inputs / "nodes.csv"),
                 "--edges", str(inputs / "edges.csv"), "--no-timestamp"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_relabelled_shuffled_ids_give_the_same_k2(tmp_path, capsys, seed):
    # US-prefixed ids are no integers, so from_files reads both network files
    # on its string path.
    relabel(FIXTURE, tmp_path / "us", seed=seed)
    for name, columns in [("nodes.csv", citation_network.NODE_COLUMNS),
                          ("edges.csv", citation_network.EDGE_COLUMNS)]:
        assert citation_network._read_int_columns(tmp_path / "us" / name, columns) is None
    assert predict_k2(capsys, tmp_path / "us", tmp_path / "ds") == FIXTURE_K2


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

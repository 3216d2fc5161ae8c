"""Golden outputs: the --no-timestamp JSON of every subcommand on the bundled fixture.

The nine commands are the benchmark's command sequence. Each report must
match its file under tests/golden/ byte for byte; ingest's dataset_dir,
the only machine-dependent field, is replaced by DATASET_DIR first.

To rewrite the golden files after a deliberate output change, run
    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from importlib import resources
from pathlib import Path

import pytest

from cornrate.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DATASET_DIR = "DATASET_DIR"


def commands(store: Path) -> dict[str, list[str]]:
    """Golden file stem -> CLI arguments, in the order they must run."""
    fixture = resources.files("cornrate.data") / "synthetic"
    files = {name: str(fixture / f"{name}.csv")
             for name in ("patents", "trials", "fieldtests", "nodes", "edges")}
    ds = ["--dataset", str(store)]
    steps = {
        "ingest": ["ingest", "--patents", files["patents"], "--trials", files["trials"],
                   "--fieldtests", files["fieldtests"], "--schema", "illinois",
                   "--out", str(store)],
        "trend_usda-file": ["trend", "--series", "usda-file"],
        "trend_patent-yearly-max": ["trend", "--series", "patent-yearly-max", *ds],
        "trend_state-average": ["trend", "--series", "state-average", *ds],
        "trend_weather-corrected": ["trend", "--series", "weather-corrected",
                                    "--region", "North", "--control", "CTRL1", *ds],
        "predict_k1": ["predict", "k1", *ds],
        "predict_k2": ["predict", "k2", *ds, "--nodes", files["nodes"],
                       "--edges", files["edges"]],
        "regress": ["regress", *ds, "--models", "1,2,3,4",
                    "--family", "ols,poisson,negbin"],
        "report": ["report", *ds],
    }
    return {stem: [*args, "--no-timestamp"] for stem, args in steps.items()}


def run_all(store: Path) -> dict[str, str]:
    """Golden file stem -> normalised stdout; every command must exit 0."""
    outputs = {}
    for stem, argv in commands(store).items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        assert code == 0, stem
        outputs[stem] = buffer.getvalue().replace(json.dumps(str(store)),
                                                  json.dumps(DATASET_DIR))
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden") / "dataset")


@pytest.mark.parametrize("stem", list(commands(Path("unused"))))
def test_output_matches_golden(stem, outputs):
    expected = (GOLDEN_DIR / f"{stem}.json").read_text(encoding="utf-8")
    assert outputs[stem] == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, text in run_all(Path(tmp) / "dataset").items():
            (GOLDEN_DIR / f"{stem}.json").write_text(text, encoding="utf-8")

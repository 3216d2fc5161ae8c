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
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import cornrate
from cornrate.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DATASET_DIR = "DATASET_DIR"
# The only commands that do array math; the others must not import numpy.
ARRAY_COMMANDS = {"predict_k2", "regress"}
# The cornrate modules each command executes (cornrate.data holds package files).
# report runs nothing beyond the base, and no trend series or predict model
# runs regression.
_BASE = {"cli", "constants", "core_data"}
_TREND = {"trend", "special"}
EXECUTED = {
    "ingest": _BASE | {"title_parser", "data"},
    "trend_usda-file": _BASE | _TREND | {"data"},
    "trend_patent-yearly-max": _BASE | _TREND | {"yield_metrics"},
    "trend_state-average": _BASE | _TREND | {"yield_metrics"},
    "trend_weather-corrected": _BASE | _TREND,
    "predict_k1": _BASE | {"citation_metrics", "ranking"},
    "predict_k2": _BASE | _TREND | {"citation_network", "ranking"},
    "regress": _BASE | _TREND | {"regression", "citation_metrics", "ranking", "yield_metrics"},
    "report": _BASE,
}


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
def store(tmp_path_factory):
    return tmp_path_factory.mktemp("golden") / "dataset"


@pytest.fixture(scope="module")
def outputs(store):
    return run_all(store)


@pytest.mark.parametrize("stem", list(commands(Path("unused"))))
def test_output_matches_golden(stem, outputs):
    expected = (GOLDEN_DIR / f"{stem}.json").read_text(encoding="utf-8")
    assert outputs[stem] == expected


@pytest.mark.parametrize("stem", list(commands(Path("unused"))))
def test_numpy_loads_only_for_array_commands(stem, store, outputs, tmp_path):
    # numpy itself is in sys.modules as a lazy stub from the start; a numpy
    # submodule (numpy._core among them) is there only once numpy has run.
    argv = commands(tmp_path / "dataset" if stem == "ingest" else store)[stem]
    src = str(Path(cornrate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import contextlib, io, sys\n"
            "import cornrate.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cornrate.cli.main({argv!r})\n"
            "print(code, any(m.startswith('numpy.') for m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.split() == ["0", str(stem in ARRAY_COMMANDS)]


def _run_python(code: str) -> str:
    src = str(Path(cornrate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


@pytest.mark.parametrize("stem", list(commands(Path("unused"))))
def test_command_executes_only_its_modules(stem, store, outputs, tmp_path):
    # cornrate.cli binds the per-command modules lazily: each stays a stub
    # (a LazyLoader module subclass) in sys.modules until first used.
    argv = commands(tmp_path / "dataset" if stem == "ingest" else store)[stem]
    out = _run_python("import contextlib, io, sys, types\n"
                      "import cornrate.cli\n"
                      "with contextlib.redirect_stdout(io.StringIO()):\n"
                      f"    code = cornrate.cli.main({argv!r})\n"
                      "print(code, *sorted(n.split('.', 1)[1] for n, m in sys.modules.items()\n"
                      "                    if n.startswith('cornrate.')\n"
                      "                    and type(m) is types.ModuleType))\n")
    code, *executed = out.split()
    assert code == "0"
    assert set(executed) == EXECUTED[stem]


def test_modules_holding_cornrate_functions_are_bound_on_import(tmp_path):
    # Code that wraps cornrate functions from outside (a profiler, the
    # benchmark's tracer) walks sys.modules once, right after importing
    # cornrate.cli. So every module that holds a function or class of another
    # cornrate module must be in sys.modules by then; a module first imported
    # later (cornrate.special) may only define its own.
    argvs = list(commands(tmp_path / "dataset").values())
    out = _run_python("import contextlib, io, json, sys\n"
                      "import cornrate.cli\n"
                      "bound = set(sys.modules)\n"
                      "with contextlib.redirect_stdout(io.StringIO()):\n"
                      f"    codes = [cornrate.cli.main(argv) for argv in {argvs!r}]\n"
                      "late = {n: sorted(k for k, v in vars(m).items() if callable(v)\n"
                      "                  and getattr(v, '__module__', '').startswith('cornrate.')\n"
                      "                  and v.__module__ != n)\n"
                      "        for n, m in sys.modules.items()\n"
                      "        if n.startswith('cornrate.') and n not in bound}\n"
                      "print(json.dumps({'codes': codes, 'late': late}))\n")
    result = json.loads(out)
    assert result["codes"] == [0] * len(argvs)
    assert set(result["late"]) <= {"cornrate.special", "cornrate.data"}
    assert all(held == [] for held in result["late"].values()), result["late"]


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, text in run_all(Path(tmp) / "dataset").items():
            (GOLDEN_DIR / f"{stem}.json").write_text(text, encoding="utf-8")

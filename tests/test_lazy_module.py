"""cornrate._lazy_module: a module bound now and executed on first use."""

import json
import sys

import pytest

from cornrate import _lazy_module


def test_already_imported_module_is_returned_as_is():
    assert _lazy_module("json") is json


def test_missing_module_raises():
    with pytest.raises(ModuleNotFoundError, match="no_such_module_here"):
        _lazy_module("no_such_module_here")


def test_execution_waits_for_first_attribute(tmp_path, monkeypatch):
    (tmp_path / "lazy_probe.py").write_text(
        "import sys\nsys.lazy_probe_runs = getattr(sys, 'lazy_probe_runs', 0) + 1\nVALUE = 7\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "lazy_probe_runs", 0, raising=False)
    try:
        module = _lazy_module("lazy_probe")
        assert sys.modules["lazy_probe"] is module
        assert sys.lazy_probe_runs == 0
        assert module.VALUE == 7
        assert sys.lazy_probe_runs == 1
        assert _lazy_module("lazy_probe") is module
    finally:
        sys.modules.pop("lazy_probe", None)


def test_submodule_is_bound_on_its_package(tmp_path, monkeypatch):
    package = tmp_path / "lazy_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "child.py").write_text(
        "import sys\nsys.lazy_child_runs = getattr(sys, 'lazy_child_runs', 0) + 1\nVALUE = 3\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "lazy_child_runs", 0, raising=False)
    try:
        module = _lazy_module("lazy_pkg.child")
        assert sys.lazy_child_runs == 0
        import lazy_pkg.child
        assert sys.modules["lazy_pkg"].child is module
        assert lazy_pkg.child.VALUE == 3
        assert sys.lazy_child_runs == 1
    finally:
        sys.modules.pop("lazy_pkg.child", None)
        sys.modules.pop("lazy_pkg", None)

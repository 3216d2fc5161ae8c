"""Hybrid-corn technology improvement rate analysis from patents and field trials."""

import importlib.util
import sys
from types import ModuleType

__version__ = "0.1.0"


def _lazy_module(name: str) -> ModuleType:
    """The module called name, executed on its first attribute access.

    A module that is already imported is returned as it is. numpy is bound
    this way so that commands that never touch an array skip its import,
    and cornrate.cli binds each command's modules this way so that a
    command executes only the modules on its own path. A submodule is also
    set as an attribute of its package, as the import system does, so that
    `import cornrate.trend; cornrate.trend.fit_exponential` keeps working.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module

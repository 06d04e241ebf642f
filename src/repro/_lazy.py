"""Package exports loaded on first use (PEP 562, Scientific Python SPEC 1).

A package ``__init__`` names its exports and the submodule each one comes
from; that submodule is imported the first time one of its names is asked
for (``repro.fusion.ECFusion``, ``from repro.fusion import ECFusion``,
``from repro.fusion import *``).  Importing a package therefore costs only
its ``__init__``, and a process compiles just the layers it runs.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, sources: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` resolving ``package``'s exports on use.

    ``sources`` maps a submodule relative to ``package`` (``".store"``) to
    the names it exports; a submodule that exports its own name
    (``".parallel": ("parallel",)``) exports the module itself.  A
    resolved name is bound in the package, so it is looked up here once.
    """
    origin = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module, package)
        if module != "." + name:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return __getattr__, __dir__

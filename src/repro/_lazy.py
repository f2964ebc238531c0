"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule on ``import package``, whether or not the caller
uses them.  :func:`lazy_exports` instead defers each submodule import to
the first access of one of its names::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.trace.trace": ["Trace", "load_trace"],
    })

``from package import Name`` and ``package.Name`` behave as before; the
resolved value is cached in the package namespace, so only the first
access pays for the import.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` of ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it.
    """
    namespace = sys.modules[package].__dict__
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return sorted(origin), __getattr__, __dir__

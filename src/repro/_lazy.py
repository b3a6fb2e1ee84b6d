"""Lazy package re-exports (PEP 562).

A package that re-exports names from its submodules declares one
``{name: defining module}`` table and hands it to :func:`lazy_exports`::

    _EXPORTS = {"simulate": "repro.engine.simulator", ...}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``import repro.engine`` then imports no submodule; the first access to a
re-exported name imports its defining module and caches the object on the
package, so ``from repro.engine import simulate`` returns the very object
``repro.engine.simulator.simulate`` is.  A command therefore pays only for
the modules it actually uses (numpy, for one, loads only with the batch
kernel and the fitting code).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package`` for its ``exports`` table."""

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__

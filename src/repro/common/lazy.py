"""Import on first use: lazy package re-exports and lazy module registries.

An entry point should load only the layers its job runs. Two helpers keep
public names importable without loading their modules up front:

* :func:`lazy_exports` builds a PEP 562 module ``__getattr__`` for a
  package ``__init__`` that re-exports names from its submodules; each
  submodule is imported the first time one of its names is read.
* :class:`LazyModules` is a read-only ``name -> module`` mapping whose
  entries may be dotted module paths, imported on first lookup.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Mapping
from types import ModuleType
from typing import Any, Callable, Dict, Iterable, Iterator, Union


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package`` re-exporting ``exports``.

    ``exports`` maps a defining module's dotted path to the names the
    package re-exports from it. Reading one of those names imports the
    module, binds the name in the package (so later reads skip the hook)
    and returns it; any other name raises ``AttributeError``. Use it as::

        __getattr__ = lazy_exports(__name__, {"pkg.mod": ("name",)})
    """
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


class LazyModules(Mapping):
    """Read-only ``name -> module`` mapping that imports entries on lookup.

    Each entry is a module or a dotted module path; a path is imported the
    first time its name is looked up and the module replaces it. Iteration
    and ``in`` read names only, so neither imports anything.
    """

    def __init__(self, entries: Mapping[str, Union[ModuleType, str]]) -> None:
        self._entries: Dict[str, Union[ModuleType, str]] = dict(entries)

    def __getitem__(self, name: str) -> ModuleType:
        entry = self._entries[name]
        if isinstance(entry, str):
            entry = self._entries[name] = importlib.import_module(entry)
        return entry

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

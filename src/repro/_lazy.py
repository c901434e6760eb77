"""PEP 562 façades: a package that names its public objects without
importing the modules that define them.

A cold ``python -m repro query`` spends most of its wall-clock in
imports, so a package ``__init__`` lists what it exports and where each
name lives, and a name's module is imported at the name's first lookup
(DESIGN.md §14, "Cold start")."""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package`` over
    ``exports`` (public name -> the module defining it).  The first
    lookup of a name imports its module and binds the object in the
    package, so every later lookup is a plain attribute read."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__

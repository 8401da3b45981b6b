"""Lazy package namespaces (PEP 562).

Each package ``__init__`` lists its public names once, in a ``{name:
submodule}`` table, and takes its module-level ``__getattr__`` and
``__dir__`` from :func:`lazy_namespace`.  Importing a package then imports
none of its submodules: a name's submodule is imported the first time the
name is looked up on the package, and the name is bound in the package
namespace, so every later lookup is a plain dictionary hit.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple


def lazy_namespace(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Return ``(__getattr__, __dir__)`` for the package named ``package``.

    ``exports`` maps each public name to the submodule, relative to the
    package, that defines it.  A name outside the table is looked up as a
    submodule (``pkg.suite`` imports ``pkg.suite``, as an eager ``__init__``
    made it available); a name that is neither raises
    :class:`AttributeError`.  Dunder names never import anything.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        submodule = exports.get(name)
        if submodule is None:
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__

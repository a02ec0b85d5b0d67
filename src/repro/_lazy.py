"""Package namespaces that import their submodules on first use.

A package ``__init__`` passes :func:`lazy_exports` its ``{submodule:
names}`` map and binds what it returns: the PEP 562 module
``__getattr__`` and ``__dir__``, and an ``__all__`` derived from the
map.  The first read of a public name imports the submodule that
defines it and caches the value in the package's namespace, so every
later read is a plain attribute lookup.  Submodules in the map resolve
the same way (``repro.graphs.spectral``), whether or not anything has
imported them yet.

Only code that a run executes should be imported before the run: a
fresh process then pays for the modules it uses, and not for the rest
of the package.  See ``docs/ARCHITECTURE.md`` ("Package imports") for
which packages stay eager and why.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str,
    exports: Mapping[str, Sequence[str]],
    modules: Sequence[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` of the package ``package``.

    ``exports`` maps each submodule to the public names it defines;
    ``modules`` lists further submodules that are public names
    themselves (the root package's subpackages).  ``__all__`` holds
    every name of ``exports`` and every entry of ``modules``, once each.
    """
    owners = {name: module for module, names in exports.items() for name in names}
    submodules = frozenset(exports).union(modules)
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name in owners:
            value = getattr(importlib.import_module(f"{package}.{owners[name]}"), name)
        elif name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(submodules.union(namespace, owners))

    return __getattr__, __dir__, sorted(set(owners).union(modules))

"""Load-on-use package exports (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` its ``{defining module:
public names}`` table and gets back ``__all__`` plus the module-level
``__getattr__``/``__dir__`` pair: ``from repro import X`` imports only the
module that defines ``X``, the first time it is asked for, so importing a
package (which importing any of its submodules does) loads none of its
siblings.  The public names, ``__all__`` and ``dir()`` are what the eager
imports gave; the ``TYPE_CHECKING`` imports above each table keep the names
visible to tools.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, modules: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` over ``modules``."""
    namespace = vars(sys.modules[package])
    home = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(home[name]), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return sorted(home), __getattr__, __dir__

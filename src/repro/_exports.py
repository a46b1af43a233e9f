"""Lazy package exports (PEP 562).

Every package ``__init__`` lists its public names once, grouped by the
module that defines them, and takes ``__all__``, ``__getattr__`` and
``__dir__`` from :func:`lazy_exports`.  Importing a package then loads
none of its modules: a name is imported from its module the first time
it is read and bound in the package, so later reads are plain lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module, relative to ``package``, to
    the public names it gives the package.
    """
    module_of = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = module_of[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(module_of))

    return list(module_of), __getattr__, __dir__

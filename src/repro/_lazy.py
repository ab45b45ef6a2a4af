"""PEP 562 lazy package exports: a public name imports its submodule on first use.

Every process of ``repro serve`` pays for what it imports, K+1 times over, so
the package ``__init__`` modules import nothing: each keeps its literal
``__all__`` and declares which submodule defines which name.  ``from package
import name``, ``package.name``, ``from package import *``, ``dir(package)``
and reaching a submodule as an attribute behave as with eager imports.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Iterable, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict, table: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    *namespace*; *table* maps each submodule to the names it exports.

    The table must cover ``__all__`` exactly (bar what the ``__init__`` binds
    itself, like ``__version__``): a drift is an :class:`ImportError` at the
    package's first import, not a missing name at some later one.
    """
    package = namespace["__name__"]
    origin = {name: submodule for submodule, names in table.items() for name in names}
    lazy = set(namespace["__all__"]) - namespace.keys()
    if origin.keys() != lazy:
        raise ImportError(
            f"{package}: __all__ and the lazy export table disagree on "
            f"{sorted(origin.keys() ^ lazy)}"
        )

    def __getattr__(name: str) -> object:
        missing = AttributeError(f"module {package!r} has no attribute {name!r}")
        if name in origin:
            value = getattr(import_module(f"{package}.{origin[name]}"), name)
        elif name.startswith("_"):
            raise missing
        else:  # a submodule reached as an attribute of its package
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise missing from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__

"""Lazy re-exports for the package facades (PEP 562).

``repro``, ``repro.core``, ``repro.stats``, ``repro.stream`` and
``repro.evaluation`` re-export names from their submodules.  Importing every
submodule up front would make any process that imports ``repro`` load the
HTTP server, persistence and the experiment harness, whatever it runs.  Each
of those facades instead keeps one table mapping every re-exported name to
the submodule that defines it; :func:`lazy_exports` turns that table into the
module-level ``__getattr__`` and ``__dir__``.  The first access imports the
submodule and caches the value in the facade's namespace, so later accesses
are plain attribute reads.  The facades repeat the same imports under
``if TYPE_CHECKING:`` so type checkers and reprolint see the names and
modules an eager facade would show.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, Any], table: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` of the package whose globals are ``namespace``.

    ``table`` maps each lazily exported name to the submodule defining it,
    relative to the package (``".classifier"``).  ``__dir__`` lists the
    package's ``__all__`` along with whatever its namespace already holds.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(submodule, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__

"""RL005 golden fixture: a package facade between the driver and a module.

The pinned driver imports ``save`` from this package, which re-exports it
from ``.snapshot`` with a relative import.  Inside a package ``__init__.py``
that import names ``repro.persist.snapshot``, so the facade must not stop
the trace closure.
"""

from .snapshot import save

__all__ = ["save"]

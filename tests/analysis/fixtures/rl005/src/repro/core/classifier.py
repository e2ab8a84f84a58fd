"""RL005 golden fixture, driver side: a trace-hash-pinned driver module.

The module name matters, not the content: ``repro.core.classifier`` is one
of the trace-closure roots, so everything it imports (``pinned`` below) must
obey the determinism rule, while modules it does *not* import
(``repro.evaluation.unpinned``) are out of scope.
"""

from ..persist import save
from ..stream.pinned import classify_once

__all__ = ["classify_once", "save"]

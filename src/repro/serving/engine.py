"""Single-snapshot serving: a one-tenant view of the model registry.

:class:`ServingEngine` serves one forest snapshot as the pinned ``default``
tenant of a private :class:`~repro.serving.ModelRegistry`, so it shares the
registry's in-process rounds, column-store lifecycle, drain-before-release
hot swap, node-cost estimate and stats — see :mod:`repro.serving.registry`.
The view keeps the single-model call surface: ``predict_batch`` on a query
block, ``swap_snapshot`` to a new snapshot, and ``close``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Hashable, List, Optional

import numpy as np

from .registry import BudgetSpec, ModelRegistry, RegistryStats, TenantPolicy

__all__ = ["ServingEngine"]


class ServingEngine:
    """Serve one forest snapshot from a registry that holds it as its only tenant.

    Parameters
    ----------
    snapshot_path:
        A container written by :func:`repro.persist.save_forest`.

    Predictions are bit-identical to ``AnytimeBayesClassifier.predict_batch``
    on the restored snapshot.
    """

    #: The registry tenant the engine serves (the async client's default tenant).
    tenant = "default"

    def __init__(self, snapshot_path: "str | Path") -> None:
        #: The registry behind the view (its stats and structure summary).
        self.registry = ModelRegistry(capacity=1)
        try:
            loaded = self.registry.load(
                self.tenant, snapshot_path, policy=TenantPolicy(pinned=True)
            )
        except BaseException:
            self.registry.close()
            raise
        #: Swaps reject another feature dimension, so this never changes.
        self.dimension = int(loaded["dimension"])

    def close(self) -> None:
        """Drain rounds and release the snapshot's column store."""
        self.registry.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def labels(self) -> List[Hashable]:
        """Servable class labels in global (repr-sorted) column order."""
        return list(self.registry._resident_entry(self.tenant).labels)

    @property
    def snapshot_path(self) -> str:
        """Path of the snapshot currently being served (updated by swaps)."""
        return self.registry._resident_entry(self.tenant).snapshot_path

    @property
    def stats(self) -> RegistryStats:
        """The registry's counters (requests, batches, loads, swaps, ...)."""
        return self.registry.stats

    def stats_snapshot(self) -> dict:
        """The registry's stats document plus the forest structure-health summary."""
        document = self.registry.stats_snapshot()
        document["structure"] = self.registry.structure_stats(self.tenant)
        return document

    def node_cost_estimate(self) -> Optional[float]:
        """EWMA seconds per lockstep node read over budgeted rounds (or ``None``)."""
        return self.registry.node_cost_estimate()

    def predict_batch(
        self, queries: np.ndarray, node_budget: "Optional[BudgetSpec]" = None
    ) -> List[Hashable]:
        """Predict labels for a ``(m, dimension)`` query block, in query order.

        ``node_budget=None`` runs full refinement; an integer (or per-query
        sequence) runs the anytime lockstep path.  Raises ``ValueError`` for
        a malformed block or per-query budget sequence.
        """
        return self.registry.predict_batch(self.tenant, queries, node_budget=node_budget)

    def swap_snapshot(self, snapshot_path: "str | Path") -> None:
        """Atomically switch serving to a new snapshot (graceful hot swap).

        The registry builds the new store while rounds keep flowing on the
        old forest, then drains in-flight rounds, switches, and releases the
        old store.  A snapshot re-saved at the current path is swapped in
        too; the same unchanged file is a no-op.  A snapshot that is
        unreadable, carries no flat columns, has no servable class or has
        another feature dimension is rejected and the engine keeps serving
        the old one.
        """
        self.registry.load(self.tenant, snapshot_path)

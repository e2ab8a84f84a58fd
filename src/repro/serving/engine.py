"""Single-snapshot serving: a one-tenant view of the model registry.

:class:`ServingEngine` serves one forest snapshot as the pinned ``default``
tenant of a private :class:`~repro.serving.ModelRegistry`, so it shares the
registry's shard pool (class-sharded full refinement with LPT packing,
query-sharded budgets), shared-memory segment lifecycle, drain-before-release
hot swap, node-cost estimate and stats — see :mod:`repro.serving.registry`.
The view keeps the single-model call surface: ``predict_batch`` on a query
block, ``swap_snapshot`` to a new snapshot, and ``close``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Hashable, List, Optional

import numpy as np

from ..persist import read_manifest
from .registry import BudgetSpec, ModelRegistry, RegistryStats, TenantPolicy

__all__ = ["ServingEngine"]


class ServingEngine:
    """Serve one forest snapshot from a registry that holds it as its only tenant.

    Parameters
    ----------
    snapshot_path:
        A container written by :func:`repro.persist.save_forest`.
    workers:
        Shard worker processes.  ``0`` serves in-process; ``None`` uses
        ``min(cpu_count, servable classes)``.  More workers than servable
        classes are clamped (a class-sharded round has no work for them).

    Predictions are bit-identical to ``AnytimeBayesClassifier.predict_batch``
    on the restored snapshot, whatever the worker count.
    """

    #: The registry tenant the engine serves (the async client's default tenant).
    tenant = "default"

    def __init__(self, snapshot_path: "str | Path", workers: Optional[int] = None) -> None:
        manifest = read_manifest(snapshot_path)
        servable = sum(1 for count in manifest["class_counts"] if count > 0)
        if workers is None:
            workers = min(os.cpu_count() or 1, servable)
        if workers < 0:
            raise ValueError("workers must be non-negative")
        #: Swaps reject another feature dimension, so this never changes.
        self.dimension = int(manifest["dimension"])
        #: The registry behind the view (its stats, worker profiles, structure).
        self.registry = ModelRegistry(capacity=1, workers=min(int(workers), servable))
        try:
            self.registry.load(self.tenant, snapshot_path, policy=TenantPolicy(pinned=True))
        except BaseException:
            self.registry.close()
            raise

    def close(self) -> None:
        """Drain rounds, stop the shard workers and release the snapshot's segment."""
        self.registry.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def is_multiprocess(self) -> bool:
        """True when rounds are served by shard processes (not in-process)."""
        return self.registry.workers > 0

    @property
    def n_shards(self) -> int:
        """Number of shard worker processes (``0`` in-process)."""
        return self.registry.workers

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

        The registry builds the new segment and has every worker attach it
        while rounds keep flowing on the old forest, then drains in-flight
        rounds, switches, and releases the old segment.  A snapshot re-saved
        at the current path is swapped in too; the same unchanged file is a
        no-op.  A snapshot that is unreadable, has no servable class or has
        another feature dimension is rejected and the engine keeps serving
        the old one.
        """
        self.registry.load(self.tenant, snapshot_path)

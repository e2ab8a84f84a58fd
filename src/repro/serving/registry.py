"""Model registry: the serving backend for one forest or many.

The paper's anytime Bayes forest is *one* classifier; production traffic from
millions of users means *many* — per-tenant models with independent
drift/decay clocks, loaded and retired on demand.  The flat snapshot
encoding makes a load cheap: one pass over the archive maps the columns,
one copy places them in the tenant's column store, and zero-copy views wrap
it — about 20-35 ms in-process for an 800- or 1600-object pendigits snapshot
on a 2-core host.  This module is the control plane and the data plane on
top of it.  Single-snapshot serving
(:class:`~repro.serving.ServingEngine`) is a registry holding one pinned
tenant.

* **Per-tenant flat-snapshot entries.**  Each resident tenant owns one
  :class:`~repro.serving.shared_mem.SharedColumnStore`, an anonymous shared
  mapping holding its flat forest columns.  Classification goes through
  exactly the same drivers as the in-process classifier, so a tenant's
  predictions and anytime refinement traces (``classification_trace_hash``)
  are bit-identical to serving that tenant's snapshot alone.
* **LRU load/evict cache with bounded memory.**  At most ``capacity``
  tenants are resident, and their stores total at most ``capacity_bytes``.
  Loading past a bound evicts the least-recently-used tenants; an evicted
  tenant stays *registered* and transparently reloads on its next request
  (the measured cold-load path).  Eviction and hot swap share one
  discipline: take the tenant's old entry out of service, wait for its
  in-flight rounds to drain, then drop its forest and dispose of its store,
  which unmaps the columns.  A hot swap builds the new store while the old
  one keeps serving.
* **Per-tenant decay clocks and budget policies.**  Every tenant's snapshot
  carries its own logical :class:`~repro.index.decay.DecayClock`, so tenants
  age and drift independently by construction; the registry surfaces each
  tenant's decay rate in its stats and applies a per-tenant
  :class:`TenantPolicy` (anytime budget clamp) at serving time.
* **Cold-start fallback.**  A request for a tenant the registry has never
  seen is served by a shared global *prior* forest (when configured) instead
  of failing — the personalisation story's "new user" path — and counted
  per tenant so promotion to a real model is observable.
* **One process.**  Every round runs in the calling thread over the
  entry's zero-copy forest: full refinement through ``drive_predict_full``,
  budgeted rounds through the lockstep anytime driver, which already
  batches the whole round, so nothing in the method needs a second
  process.

Durability comes from :mod:`repro.persist.tenants`: a versioned JSON tenant
manifest maps names to snapshot paths and policies, and
:meth:`ModelRegistry.from_manifest` registers the whole catalogue lazily.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..core.driver import AnytimeClassification, validate_batch_budgets
from ..core.flat import FlatForest
from ..persist import read_snapshot, read_tenant_manifest
from .errors import RegistryClosedError, TenantNotFoundError
from .shared_mem import SharedColumnStore

__all__ = ["ModelRegistry", "RegistryStats", "TenantPolicy"]

#: Per-query node budgets accepted by the serving surface: one scalar budget
#: for the whole batch, or one budget per query.
BudgetSpec = Union[int, Sequence[int], np.ndarray]

#: A snapshot file's identity: ``(st_dev, st_ino, st_size, st_mtime_ns)``.
_FileIdentity = Tuple[int, int, int, int]


def _file_identity(path: str) -> Optional[_FileIdentity]:
    """The identity of the file at ``path`` now, or ``None`` when it cannot be read."""
    try:
        status = os.stat(path)
    except OSError:
        return None
    return (status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns)


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant serving policy applied by the registry at request time.

    Attributes
    ----------
    max_node_budget:
        Upper clamp on per-query anytime node budgets for this tenant
        (``None`` = unclamped).  Full-refinement requests (``node_budget is
        None``) are never clamped — they are exact by definition; the clamp
        bounds how much *anytime* refinement a tenant may buy per query, the
        budget-fairness knob between tenants sharing one process.
    pinned:
        A pinned tenant is exempt from LRU eviction (it still counts against
        the capacity bounds and is disposed on :meth:`ModelRegistry.close`).
    weight:
        The tenant's deficit-round-robin scheduling weight in the front-end
        admission layer (:mod:`repro.serving.admission`).  Under contention,
        a tenant's share of served requests is proportional to its weight;
        must be positive (a zero weight could never earn scheduling credit).
    max_queue_depth:
        Per-tenant bound on requests queued in the front-end (``None`` =
        only the global ``max_pending`` bound applies).  A hot tenant that
        fills its own queue gets a per-tenant 503 without consuming the
        shared queue space other tenants need.
    requests_per_sec:
        Token-bucket quota on the tenant's sustained offered rate (``None``
        = unlimited).  Breaches reject with the enveloped HTTP 429
        (:class:`~repro.serving.errors.QuotaExceededError`) and a
        ``Retry-After`` computed from the refill rate.
    """

    max_node_budget: Optional[int] = None
    pinned: bool = False
    weight: float = 1.0
    max_queue_depth: Optional[int] = None
    requests_per_sec: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_node_budget is not None and self.max_node_budget < 1:
            raise ValueError("max_node_budget must be at least 1 (or None)")
        if not self.weight > 0:
            raise ValueError("weight must be positive")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1 (or None)")
        if self.requests_per_sec is not None and not self.requests_per_sec > 0:
            raise ValueError("requests_per_sec must be positive (or None)")

    def to_dict(self) -> dict:
        """Plain-JSON form (the tenant-manifest ``policy`` entry)."""
        return {
            "max_node_budget": self.max_node_budget,
            "pinned": self.pinned,
            "weight": self.weight,
            "max_queue_depth": self.max_queue_depth,
            "requests_per_sec": self.requests_per_sec,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TenantPolicy":
        """Validate and build a policy from a tenant-manifest ``policy`` dict.

        Manifests written before the admission-control fields existed (only
        ``max_node_budget``/``pinned``) load unchanged — absent keys take
        the dataclass defaults.
        """
        unknown = sorted(
            set(data)
            - {"max_node_budget", "pinned", "weight", "max_queue_depth", "requests_per_sec"}
        )
        if unknown:
            raise ValueError(f"unknown tenant policy keys: {unknown}")
        budget = data.get("max_node_budget")
        depth = data.get("max_queue_depth")
        rate = data.get("requests_per_sec")
        return cls(
            max_node_budget=None if budget is None else int(budget),  # type: ignore[call-overload]
            pinned=bool(data.get("pinned", False)),
            weight=float(data.get("weight", 1.0)),  # type: ignore[arg-type]
            max_queue_depth=None if depth is None else int(depth),  # type: ignore[call-overload]
            requests_per_sec=None if rate is None else float(rate),  # type: ignore[arg-type]
        )


@dataclass
class RegistryStats:
    """Registry-wide counters (loads, evictions, swaps, serving rounds).

    Attributes
    ----------
    requests / batches:
        Queries accepted and scatter rounds executed, summed over tenants.
    loads:
        Completed store builds — initial loads plus cold reloads.
    reloads:
        The subset of ``loads`` that re-materialised an evicted tenant on
        demand (the measured cold-start-latency path).
    evictions:
        Completed drain-and-release evictions (LRU pressure or explicit).
    swaps:
        In-place snapshot replacements of a resident tenant.
    cold_start_requests:
        Queries served by the shared global prior forest because the tenant
        was unregistered.
    """

    requests: int = 0
    batches: int = 0
    loads: int = 0
    reloads: int = 0
    evictions: int = 0
    swaps: int = 0
    cold_start_requests: int = 0


@dataclass
class _TenantEntry:
    """One resident tenant: its column store, the forest over it, and counters."""

    tenant: str
    snapshot_path: str
    #: The snapshot file's identity when the build read it: a load of the
    #: same path is idempotent only while the file keeps this identity.
    file_identity: Optional[_FileIdentity]
    policy: TenantPolicy
    store: SharedColumnStore
    #: The zero-copy forest over the store's map; every round reads it.
    forest: FlatForest
    #: Servable (non-empty) classes in repr-sorted order.
    labels: List[Hashable]
    dimension: int
    decay_rate: float
    cold_load_ms: float
    active: int = 0
    requests: int = 0
    batches: int = 0


@dataclass
class _TenantSpec:
    """Registration record of a known (possibly non-resident) tenant."""

    snapshot_path: str
    policy: TenantPolicy
    loads: int = 0


class ModelRegistry:
    """Serve many independent forest snapshots in one process.

    Parameters
    ----------
    capacity:
        Maximum number of resident tenants (the LRU bound); at least 1.
    capacity_bytes:
        Optional bound on the summed size of resident tenants' column
        stores.  Loading past it evicts LRU tenants first; the most
        recently loaded tenant is always kept (a single model larger than
        the bound still serves).
    prior_snapshot:
        Optional shared global-prior snapshot.  Requests for *unregistered*
        tenants are served by this forest (cold-start fallback) instead of
        raising :class:`~repro.serving.TenantNotFoundError`.

    Thread safety: all public methods may be called concurrently; eviction
    and per-tenant snapshot swaps wait for that tenant's in-flight rounds to
    drain and never tear a round across two snapshots.
    """

    def __init__(
        self,
        capacity: int = 4,
        capacity_bytes: Optional[int] = None,
        prior_snapshot: "str | Path | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ValueError("capacity_bytes must be positive (or None)")
        self.capacity = int(capacity)
        self.capacity_bytes = None if capacity_bytes is None else int(capacity_bytes)
        self.stats = RegistryStats()
        self._cond = threading.Condition()
        self._entries: "OrderedDict[str, _TenantEntry]" = OrderedDict()
        self._known: Dict[str, _TenantSpec] = {}
        # Tenants mid-load/evict/swap; acquires park only while they are not resident.
        self._busy: Set[str] = set()
        self._closed = False
        self._node_cost_ewma: Optional[float] = None
        self._prior: Optional[_TenantEntry] = None
        if prior_snapshot is not None:
            try:
                self._prior = self._build_entry(
                    "__prior__", str(prior_snapshot), TenantPolicy(pinned=True)
                )
            except BaseException:
                self.close()
                raise

    @classmethod
    def from_manifest(cls, manifest_path: "str | Path", **kwargs: object) -> "ModelRegistry":
        """Build a registry from a persisted tenant manifest.

        Every catalogued tenant is *registered* (lazily resident: its model
        loads on first use, within the LRU bounds) and the manifest's
        ``prior_snapshot`` becomes the cold-start fallback unless the caller
        overrides it via ``kwargs``.  See
        :func:`repro.persist.read_tenant_manifest` for the document format.
        """
        catalogue = read_tenant_manifest(manifest_path)
        if "prior_snapshot" not in kwargs and catalogue["prior_snapshot"] is not None:
            kwargs["prior_snapshot"] = catalogue["prior_snapshot"]
        registry = cls(**kwargs)  # type: ignore[arg-type]
        for tenant, entry in catalogue["tenants"].items():
            registry.register(
                tenant, entry["snapshot"], policy=TenantPolicy.from_dict(entry["policy"])
            )
        return registry

    # -- lifecycle ---------------------------------------------------------------------------
    def close(self) -> None:
        """Evict every tenant (and the prior) and release every store."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for tenant in list(self.resident_tenants()):
            self.evict(tenant, _count=False)
        if self._prior is not None:
            with self._cond:
                while self._prior.active > 0:
                    self._cond.wait()
            self._destroy_entry(self._prior)
            self._prior = None

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- registration and residency ----------------------------------------------------------
    def register(
        self, tenant: str, snapshot_path: "str | Path", policy: Optional[TenantPolicy] = None
    ) -> None:
        """Register a tenant's snapshot without making it resident.

        The model loads lazily on the tenant's first request (within the LRU
        bounds).  Re-registering an absent tenant updates its path/policy;
        re-registering a *resident* tenant with a different path is a swap —
        use :meth:`load` for that (this method raises ``ValueError`` to keep
        registration side-effect-free).
        """
        name = self._valid_tenant(tenant)
        resolved = TenantPolicy() if policy is None else policy
        with self._cond:
            entry = self._entries.get(name)
            if entry is not None and entry.snapshot_path != str(snapshot_path):
                raise ValueError(
                    f"tenant {name!r} is resident on a different snapshot; "
                    "use load() to swap it"
                )
            if entry is not None:
                entry.policy = resolved
            spec = self._known.get(name)
            if spec is None:
                self._known[name] = _TenantSpec(str(snapshot_path), resolved)
            else:
                spec.snapshot_path = str(snapshot_path)
                spec.policy = resolved

    def load(
        self,
        tenant: str,
        snapshot_path: "str | Path | None" = None,
        policy: Optional[TenantPolicy] = None,
    ) -> dict:
        """Make a tenant resident (registering it first if needed).

        Idempotent for a tenant already resident on the same, unchanged
        snapshot file (the call only refreshes its LRU position and policy).
        A resident tenant loaded with another snapshot — another path, or a
        file re-saved at the same path since it loaded — is hot-swapped: the
        new store is built while the old snapshot keeps serving, then
        in-flight rounds drain, and only then is the old store released —
        no round ever tears across two snapshots.  The
        registration changes only once the new snapshot has loaded, so a
        rejected snapshot leaves the tenant exactly as it was.
        Returns the tenant's stats dict (including ``cold_load_ms`` for
        fresh loads).

        Raises
        ------
        ValueError
            For an invalid tenant name, when ``snapshot_path`` is omitted
            for an unregistered tenant, when the snapshot has no servable
            class, or when a swap's snapshot has another feature dimension
            than the resident one.
        repro.persist.SnapshotError
            When the container is unreadable or carries no flat columns.
        RegistryClosedError
            When the registry is closed, also by a ``close()`` that ran while
            the snapshot was loading (the built store is then released).
        """
        name = self._valid_tenant(tenant)
        with self._cond:
            self._wait_not_busy(name)
            self._ensure_open()
            known = self._known.get(name)
            if snapshot_path is None:
                if known is None:
                    raise ValueError(
                        f"tenant {name!r} is not registered; pass snapshot_path"
                    )
                snapshot_path = known.snapshot_path
            path = str(snapshot_path)
            resolved_policy = policy if policy is not None else (
                known.policy if known is not None else TenantPolicy()
            )
            entry = self._entries.get(name)
            if (
                entry is not None
                and entry.snapshot_path == path
                and entry.file_identity == _file_identity(path)
            ):
                # Double-load idempotence: touch the LRU, update the policy.
                entry.policy = resolved_policy
                self._known[name].policy = resolved_policy
                self._entries.move_to_end(name)
                return self._tenant_stats_locked(name)
            self._busy.add(name)
        try:
            new_entry = self._build_entry(
                name, path, resolved_policy, None if entry is None else entry.dimension
            )
        except BaseException:
            with self._cond:
                self._busy.discard(name)
                self._cond.notify_all()
            raise
        with self._cond:
            # The commit: acquires park (the tenant is busy and not resident)
            # only while the old entry's in-flight rounds drain.
            old = self._entries.pop(name, None)
            while old is not None and old.active > 0:
                self._cond.wait()
            # Checked after the drain, whose waits release the lock: a close()
            # that ran during the build or the drain found no entry to evict.
            closed = self._closed
            if not closed:
                known = self._known.setdefault(name, _TenantSpec(path, resolved_policy))
                known.snapshot_path, known.policy = path, resolved_policy
                self._entries[name] = new_entry
                known.loads += 1
                self.stats.loads += 1
                if old is not None:
                    self.stats.swaps += 1
                evicted = self._evict_overflow_locked(keep=name)
                result = self._tenant_stats_locked(name)
            self._busy.discard(name)
            self._cond.notify_all()
        if old is not None:
            self._destroy_entry(old)
        if closed:
            self._destroy_entry(new_entry)
            raise RegistryClosedError("model registry is closed")
        for victim in evicted:
            self._destroy_entry(victim)
        return result

    def evict(self, tenant: str, _count: bool = True) -> bool:
        """Evict a tenant's model, releasing its store after rounds drain.

        The tenant stays registered: its next request transparently reloads
        the snapshot (cold start).  Returns ``False`` when the tenant was
        not resident.  Blocks until the tenant's in-flight serving rounds
        complete — the caller observes the store released, not merely
        doomed.
        """
        name = self._valid_tenant(tenant)
        with self._cond:
            self._wait_not_busy(name)
            # Pop before draining: new rounds park instead of pinning the
            # doomed entry, so the drain is bounded by the rounds in flight.
            entry = self._entries.pop(name, None)
            if entry is None:
                return False
            self._busy.add(name)
            while entry.active > 0:
                self._cond.wait()
            if _count:
                self.stats.evictions += 1
            self._busy.discard(name)
            self._cond.notify_all()
        self._destroy_entry(entry)
        return True

    def resident_tenants(self) -> List[str]:
        """Resident tenant names in LRU order (least recently used first)."""
        with self._cond:
            return list(self._entries)

    def known_tenants(self) -> List[str]:
        """Every registered tenant name (resident or not), sorted."""
        with self._cond:
            return sorted(self._known)

    def memory_bytes(self) -> int:
        """Total bytes of resident column stores (including the prior)."""
        with self._cond:
            total = sum(entry.store.size for entry in self._entries.values())
            if self._prior is not None:
                total += self._prior.store.size
            return total

    def expected_dimension(self, tenant: str) -> Optional[int]:
        """The feature dimension a tenant's requests must have, if known now.

        Advisory (no residency is triggered): the resident entry's dimension,
        else the prior's for unregistered tenants, else ``None`` — callers
        without an answer defer validation to the serving round.
        """
        with self._cond:
            entry = self._entries.get(tenant)
            if entry is not None:
                return entry.dimension
            if tenant not in self._known and self._prior is not None:
                return self._prior.dimension
            return None

    def node_cost_estimate(self) -> Optional[float]:
        """EWMA seconds per lockstep node read over budgeted rounds (or ``None``).

        Calibrated from completed *budgeted* rounds (a round of per-query
        budgets ``b`` runs ``max(b)`` lockstep steps); full-refinement rounds
        do not update it.  The async front-end turns idle time into node
        budgets with it.
        """
        with self._cond:
            return self._node_cost_ewma

    def tenant_policy(self, tenant: str) -> Optional[TenantPolicy]:
        """The registered policy of ``tenant``, or ``None`` when unregistered.

        Advisory and side-effect free (no residency is triggered): the
        front-end admission layer reads the DRR ``weight``,
        ``max_queue_depth`` and ``requests_per_sec`` fields from here on
        every request, so policy changes via :meth:`register`/:meth:`load`
        apply to the very next admission decision.
        """
        with self._cond:
            spec = self._known.get(tenant)
            return spec.policy if spec is not None else None

    # -- serving -----------------------------------------------------------------------------
    def predict_batch(
        self,
        tenant: str,
        queries: np.ndarray,
        node_budget: "Optional[BudgetSpec]" = None,
    ) -> List[Hashable]:
        """Predict labels for one tenant's query block.

        ``node_budget=None`` runs full refinement; an int (or per-query
        sequence) runs the anytime lockstep path, clamped by the tenant's
        :class:`TenantPolicy.max_node_budget`.  A registered-but-evicted
        tenant is reloaded first (cold start); an unregistered tenant is
        served by the shared prior forest when one is configured, else
        :class:`~repro.serving.TenantNotFoundError` is raised.  Predictions
        are bit-identical to serving the tenant's snapshot alone.
        """
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2:
            raise ValueError("queries must be an (m, dimension) array")
        entry = self._acquire(tenant)
        self._note_cold_start(entry, queries.shape[0])
        start = time.perf_counter()
        try:
            if queries.shape[1] != entry.dimension:
                raise ValueError(f"queries must be an (m, {entry.dimension}) array")
            budgets = self._resolve_budgets(queries.shape[0], node_budget, entry.policy, "node_budget")
            if queries.shape[0] == 0:
                return []
            predictions = self._round(entry, queries, budgets)
            # Only completed rounds feed the timing stats: a round that raised
            # (bad budgets, say) would pollute the node-cost EWMA.
            self._observe_round(entry, queries.shape[0], time.perf_counter() - start, budgets)
            return predictions
        finally:
            self._release(entry)

    def classify_anytime_batch(
        self,
        tenant: str,
        queries: np.ndarray,
        max_nodes: "BudgetSpec",
        record_history: bool = True,
    ) -> List[AnytimeClassification]:
        """Full anytime results (with refinement history) for one tenant.

        The in-process analogue of :meth:`predict_batch`'s budgeted path,
        returning the :class:`~repro.core.driver.AnytimeClassification`
        objects whose histories feed ``classification_trace_hash`` — the
        hook the trace-identity tests and benches pin multi-tenant serving
        with.  Budgets are clamped by the tenant policy exactly as in
        :meth:`predict_batch`.
        """
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2:
            raise ValueError("queries must be an (m, dimension) array")
        entry = self._acquire(tenant)
        self._note_cold_start(entry, queries.shape[0])
        try:
            if queries.shape[1] != entry.dimension:
                raise ValueError(f"queries must be an (m, {entry.dimension}) array")
            budgets = self._resolve_budgets(queries.shape[0], max_nodes, entry.policy, "max_nodes")
            assert budgets is not None
            return entry.forest.classify_anytime_batch(
                queries, max_nodes=budgets, record_history=record_history
            )
        finally:
            self._release(entry)

    # -- observability -----------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """One consistent JSON-able view: registry bounds, counters and tenants.

        The ``tenants`` mapping nests one stats dict per *registered* tenant
        (resident or not) — the per-tenant nesting the v1 ``/stats`` schema
        exposes.  ``schema_version`` stamps the document shape.
        """
        with self._cond:
            tenants = {name: self._tenant_stats_locked(name) for name in sorted(self._known)}
            resident_bytes = sum(entry.store.size for entry in self._entries.values())
            snapshot = {
                "schema_version": 5,
                "capacity": self.capacity,
                "capacity_bytes": self.capacity_bytes,
                "resident": len(self._entries),
                "registered": len(self._known),
                "resident_bytes": resident_bytes,
                "node_cost_s": self._node_cost_ewma,
                "counters": {
                    "requests": self.stats.requests,
                    "batches": self.stats.batches,
                    "loads": self.stats.loads,
                    "reloads": self.stats.reloads,
                    "evictions": self.stats.evictions,
                    "swaps": self.stats.swaps,
                    "cold_start_requests": self.stats.cold_start_requests,
                },
                "tenants": tenants,
                "prior": None,
            }
            if self._prior is not None:
                snapshot["prior"] = {
                    "snapshot_path": self._prior.snapshot_path,
                    "shm_bytes": self._prior.store.size,
                    "requests": self._prior.requests,
                }
            return snapshot

    def tenant_stats(self, tenant: str) -> dict:
        """The stats dict of one registered tenant (see :meth:`stats_snapshot`)."""
        with self._cond:
            if tenant not in self._known:
                raise TenantNotFoundError(f"tenant {tenant!r} is not registered")
            return self._tenant_stats_locked(tenant)

    def _resident_entry(self, tenant: str) -> _TenantEntry:
        """The tenant's resident entry (the serving one while a swap builds)."""
        with self._cond:
            while tenant not in self._entries and tenant in self._busy:
                self._cond.wait()
            entry = self._entries.get(tenant)
            if entry is None:
                raise TenantNotFoundError(f"tenant {tenant!r} is not resident")
            return entry

    def structure_stats(self, tenant: str) -> Optional[dict]:
        """A resident tenant's forest structure-health summary, computed now.

        Derived on demand from the flat interval columns
        (:meth:`~repro.core.flat.FlatForest.structure_stats`), so loads and
        swaps never pay for it; ``None`` when the tenant is not resident.
        """
        with self._cond:
            entry = self._entries.get(tenant)
            if entry is None:
                return None
            entry.active += 1
        try:
            return entry.forest.structure_stats()
        finally:
            self._release(entry)

    # -- internals ---------------------------------------------------------------------------
    @staticmethod
    def _valid_tenant(tenant: str) -> str:
        if not isinstance(tenant, str) or not tenant or len(tenant) > 128:
            raise ValueError("tenant must be a non-empty string of at most 128 characters")
        return tenant

    def _ensure_open(self) -> None:
        if self._closed:
            raise RegistryClosedError("model registry is closed")

    def _wait_not_busy(self, tenant: str) -> None:
        while tenant in self._busy:
            self._cond.wait()

    @staticmethod
    def _build_entry(
        tenant: str, path: str, policy: TenantPolicy, dimension: Optional[int] = None
    ) -> _TenantEntry:
        """Materialise a tenant: snapshot columns -> column store -> zero-copy forest.

        A snapshot without flat members is refused (``SnapshotError`` from
        ``read_snapshot``): serving never restores the write side.
        ``dimension`` (the resident entry's, on a swap) rejects a snapshot of
        another feature dimension before any store is built.  The columns
        are copied out of the snapshot's file map, so a file truncated in
        place cannot fault a round.
        """
        start = time.perf_counter()
        # Stat before reading: a file replaced in between is stamped with the
        # old identity, so the next load of the path rebuilds (never stale).
        identity = _file_identity(path)
        manifest, columns = read_snapshot(path)
        if dimension is not None and int(manifest["dimension"]) != dimension:
            raise ValueError(
                f"snapshot dimension {manifest['dimension']} does not match "
                f"the tenant's dimension {dimension}"
            )
        counts = dict(zip(manifest["classes"], manifest["class_counts"]))
        labels = sorted((label for label, count in counts.items() if count > 0), key=repr)
        if not labels:
            raise ValueError("snapshot holds no servable (non-empty) classes")
        store = SharedColumnStore(columns)
        del columns  # drop the file map's references; the store owns the bytes now
        try:
            forest = FlatForest.from_columns(
                store.views(),
                labels=manifest["classes"],
                descent=manifest["descent"],
                qbk_k=manifest["qbk_k"],
                dimension=int(manifest["dimension"]),
            )
        except BaseException:
            store.dispose()
            raise
        config = manifest.get("config") or {}
        return _TenantEntry(
            tenant=tenant,
            snapshot_path=path,
            file_identity=identity,
            policy=policy,
            store=store,
            forest=forest,
            labels=labels,
            dimension=int(manifest["dimension"]),
            decay_rate=float(config.get("decay_rate", 0.0)),
            cold_load_ms=(time.perf_counter() - start) * 1e3,
        )

    @staticmethod
    def _destroy_entry(entry: _TenantEntry) -> None:
        """Release the tenant's store: its forest's views go first, so the map closes."""
        del entry.forest
        entry.store.dispose()

    def _evict_overflow_locked(self, keep: str) -> List[_TenantEntry]:
        """Pop LRU entries past the capacity bounds (caller disposes them).

        Called with the condition held.  ``keep`` (the just-loaded tenant),
        pinned tenants and tenants mid-load are never chosen; each victim is
        popped, then its in-flight rounds drain, as in :meth:`evict`.
        """
        victims: List[_TenantEntry] = []
        while True:
            over_count = len(self._entries) > self.capacity
            over_bytes = (
                self.capacity_bytes is not None
                and sum(entry.store.size for entry in self._entries.values())
                > self.capacity_bytes
                and len(self._entries) > 1
            )
            if not (over_count or over_bytes):
                return victims
            victim_name = next(
                (
                    name
                    for name, entry in self._entries.items()
                    if name != keep and not entry.policy.pinned and name not in self._busy
                ),
                None,
            )
            if victim_name is None:
                return victims
            victim = self._entries.pop(victim_name)
            self._busy.add(victim_name)
            while victim.active > 0:
                self._cond.wait()
            self._busy.discard(victim_name)
            self.stats.evictions += 1
            victims.append(victim)
            self._cond.notify_all()

    def _acquire(self, tenant: str) -> _TenantEntry:
        """Pin a servable entry for one round (reload / prior fallback inside).

        A resident entry serves even while its swap builds; a tenant that is
        busy and not resident (loading, or a commit or eviction draining)
        parks until that finishes.
        """
        name = self._valid_tenant(tenant)
        while True:
            with self._cond:
                self._ensure_open()
                entry = self._entries.get(name)
                if entry is not None:
                    self._entries.move_to_end(name)
                    entry.active += 1
                    return entry
                if name in self._busy:
                    self._cond.wait()
                    continue
                known = self._known.get(name)
                if known is None:
                    if self._prior is None:
                        raise TenantNotFoundError(
                            f"tenant {name!r} is not registered and no prior "
                            "snapshot is configured for cold-start fallback"
                        )
                    self._prior.active += 1
                    return self._prior
            # Registered but evicted: reload outside the lock, then retry.
            self._reload(name)

    def _reload(self, tenant: str) -> None:
        """Cold-reload a registered tenant that LRU pressure evicted."""
        with self._cond:
            self._wait_not_busy(tenant)
            if tenant in self._entries or tenant not in self._known:
                return
            spec = self._known[tenant]
            self._busy.add(tenant)
        try:
            entry = self._build_entry(tenant, spec.snapshot_path, spec.policy)
        except BaseException:
            with self._cond:
                self._busy.discard(tenant)
                self._cond.notify_all()
            raise
        with self._cond:
            closed = self._closed  # a close() during the build found nothing to evict
            if not closed:
                self._entries[tenant] = entry
                spec.loads += 1
                self.stats.loads += 1
                self.stats.reloads += 1
                evicted = self._evict_overflow_locked(keep=tenant)
            self._busy.discard(tenant)
            self._cond.notify_all()
        if closed:
            self._destroy_entry(entry)
            raise RegistryClosedError("model registry is closed")
        for victim in evicted:
            self._destroy_entry(victim)

    def _note_cold_start(self, entry: _TenantEntry, count: int) -> None:
        if entry is self._prior:
            with self._cond:
                self.stats.cold_start_requests += count

    def _release(self, entry: _TenantEntry) -> None:
        with self._cond:
            entry.active -= 1
            self._cond.notify_all()

    @staticmethod
    def _resolve_budgets(
        count: int, node_budget: "Optional[BudgetSpec]", policy: TenantPolicy, name: str
    ) -> Optional[np.ndarray]:
        """Per-query budget array for a round, clamped by the tenant policy.

        Float and bool budgets are refused like the classifier refuses them
        (:func:`~repro.core.driver.validate_batch_budgets`), not rounded;
        each refusal names ``name``, the parameter the caller passed.
        """
        if node_budget is None:
            return None
        budgets = validate_batch_budgets(count, node_budget, name=name)
        if np.any(budgets < 1):
            raise ValueError(f"{name} must be at least 1")
        if policy.max_node_budget is not None:
            budgets = np.minimum(budgets, policy.max_node_budget)
        return budgets.astype(np.int64, copy=False)

    @staticmethod
    def _round(
        entry: _TenantEntry, queries: np.ndarray, budgets: Optional[np.ndarray]
    ) -> List[Hashable]:
        """One serving round over the entry's forest, in the calling thread."""
        if budgets is None:
            return entry.forest.predict_batch(queries)
        results = entry.forest.classify_anytime_batch(
            queries, max_nodes=budgets, record_history=False
        )
        return [result.final_prediction for result in results]

    def _observe_round(
        self,
        entry: _TenantEntry,
        count: int,
        elapsed: float,
        budgets: Optional[np.ndarray],
    ) -> None:
        with self._cond:
            self.stats.requests += count
            self.stats.batches += 1
            entry.requests += count
            entry.batches += 1
            if budgets is None or budgets.size == 0:
                return
            steps = int(np.max(budgets))
            if steps < 1:
                return
            cost = elapsed / steps
            if self._node_cost_ewma is None:
                self._node_cost_ewma = cost
            else:
                self._node_cost_ewma += 0.3 * (cost - self._node_cost_ewma)

    def _tenant_stats_locked(self, tenant: str) -> dict:
        """Per-tenant stats dict (caller holds the condition)."""
        known = self._known.get(tenant)
        entry = self._entries.get(tenant)
        stats: dict = {
            "tenant": tenant,
            "resident": entry is not None,
            "snapshot_path": entry.snapshot_path if entry is not None else (
                known.snapshot_path if known is not None else None
            ),
            "policy": (
                entry.policy if entry is not None else (
                    known.policy if known is not None else TenantPolicy()
                )
            ).to_dict(),
            "loads": known.loads if known is not None else (1 if entry is not None else 0),
        }
        if entry is not None:
            stats.update(
                {
                    "shm_bytes": entry.store.size,
                    "dimension": entry.dimension,
                    "n_classes": entry.forest.n_classes,
                    "decay_rate": entry.decay_rate,
                    "cold_load_ms": entry.cold_load_ms,
                    "requests": entry.requests,
                    "batches": entry.batches,
                    "in_flight": entry.active,
                }
            )
        return stats

"""Serving snapshotted Bayes forests: one backend, an async front-end, HTTP.

:class:`ModelRegistry` (:mod:`repro.serving.registry`) is the one serving
backend.  It keeps an LRU cache of per-tenant flat-snapshot segments
(bounded count and bytes, drain-before-release eviction and hot swap) in
POSIX shared memory (:mod:`repro.serving.shared_mem`) whose names are
unlinked as soon as every process has mapped them, applies per-tenant
:class:`TenantPolicy` budget clamps and falls back to a shared global prior
for unknown tenants.  With ``workers > 0`` it serves from one single-worker
process per shard: every worker attaches a segment once, full-refinement
rounds are class-sharded by an LPT packing of per-class kernel counts
(:func:`plan_shard_assignment`) and budgeted rounds are query-sharded.
Predictions are bit-identical to the in-process classifier.
:class:`ServingEngine` serves a single snapshot as a registry's one pinned
tenant.

On top of it, :mod:`repro.serving.frontend` adds the asyncio request layer:
:class:`AsyncServingClient` coalesces concurrent ``await classify(...)``
calls into backend rounds with bounded-queue backpressure, per-request
deadlines and load-adaptive node budgets (:data:`ADAPTIVE`), and
:class:`HttpFrontend` exposes the whole stack over a minimal stdlib HTTP
endpoint with the versioned ``/v1/tenants/{tenant}/...`` routes — including
``/stats``, which reports the workers' warm-start latency, shared/private
RSS split and forest structure health.  Admission across tenants is *fair*
(:mod:`repro.serving.admission`): a deficit-round-robin scheduler over
per-tenant queues, weighted by :class:`TenantPolicy.weight`, plus
per-tenant ``max_queue_depth`` bounds and ``requests_per_sec`` token-bucket
quotas (the enveloped HTTP 429).  Every request failure across the stack
derives from :class:`ServingError` (:mod:`repro.serving.errors`), which
carries the stable wire code the HTTP error envelope exposes.
"""

from .admission import DeficitRoundRobin, TenantQueueStats, TokenBucket
from .engine import ServingEngine
from .errors import (
    ERROR_CODES,
    DeadlineExceededError,
    FrontendClosedError,
    FrontendError,
    QueueFullError,
    QuotaExceededError,
    RegistryCapacityError,
    RegistryClosedError,
    ServingError,
    TenantNotFoundError,
    error_envelope,
)
from .frontend import (
    ADAPTIVE,
    AdaptiveBudgetPolicy,
    ArrivalRateEstimator,
    AsyncServingClient,
    ClassifyResult,
    FrontendStats,
    HttpFrontend,
    drive_open_loop,
)
from .registry import ModelRegistry, RegistryStats, TenantPolicy, plan_shard_assignment
from .shared_mem import SharedColumnStore, attach_columns, memory_profile, segment_exists

__all__ = [
    "ServingEngine",
    "plan_shard_assignment",
    "SharedColumnStore",
    "attach_columns",
    "memory_profile",
    "segment_exists",
    "ModelRegistry",
    "RegistryStats",
    "TenantPolicy",
    "ADAPTIVE",
    "AdaptiveBudgetPolicy",
    "ArrivalRateEstimator",
    "AsyncServingClient",
    "ClassifyResult",
    "DeficitRoundRobin",
    "TenantQueueStats",
    "TokenBucket",
    "ERROR_CODES",
    "DeadlineExceededError",
    "FrontendClosedError",
    "FrontendError",
    "QueueFullError",
    "QuotaExceededError",
    "RegistryCapacityError",
    "RegistryClosedError",
    "ServingError",
    "TenantNotFoundError",
    "error_envelope",
    "FrontendStats",
    "HttpFrontend",
    "drive_open_loop",
]

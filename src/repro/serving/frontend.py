"""Asyncio request front-end for the serving backend.

The anytime premise of the paper is that a classifier should convert whatever
time exists *between* request arrivals into refinement quality.  The
:class:`~repro.serving.ModelRegistry` realises the compute side of that (a
:class:`~repro.serving.ServingEngine` is a registry serving one snapshot);
this module adds the traffic side — an asyncio-native request layer so real
(network) arrivals feed the same serving rounds:

* :class:`AsyncServingClient` — ``await classify(x, deadline_ms=...)`` backed
  by an event-loop-side micro-batcher: bounded per-tenant queues coalesce
  concurrent requests (up to ``max_batch``, waiting at most ``linger_s``
  after the first) into backend rounds executed off-loop in a worker thread.
  Rounds are assembled by a deficit-round-robin scheduler over the tenant
  queues (:mod:`repro.serving.admission`), so under contention each tenant's
  served share tracks its :class:`~repro.serving.TenantPolicy` weight
  instead of one hot tenant starving the rest.  Backpressure is explicit: a
  full queue (global ``max_pending`` or the tenant's ``max_queue_depth``)
  rejects new work with :class:`QueueFullError` (the 503 of the HTTP shim)
  instead of queueing unboundedly, a tenant over its ``requests_per_sec``
  quota gets :class:`QuotaExceededError` (the 429), and per-request
  deadlines turn into :class:`DeadlineExceededError` (the 504).
* **Load-adaptive budgets** — :class:`ArrivalRateEstimator` keeps an EWMA of
  the observed inter-arrival gaps and :class:`AdaptiveBudgetPolicy` maps the
  estimated idle time per arrival to a per-round ``node_budget`` (calibrated
  by the backend's measured cost per lockstep node read).  Light traffic
  gets deep refinement, bursts degrade gracefully to shallow reads — the
  paper's anytime curve realised as a serving policy.  Request it with
  ``node_budget=ADAPTIVE``.
* :class:`HttpFrontend` — a minimal stdlib HTTP shim
  (:func:`asyncio.start_server`; no third-party dependency) speaking one JSON
  document per request/response on the versioned
  ``/v1/tenants/{tenant}/...`` surface plus ``/v1/registry``, ``/healthz``
  and ``/stats``, so external load generators can drive the backend over a
  socket.  ``/stats`` merges the front-end counters with the registry's
  ``stats_snapshot()`` (counters, per-tenant store size and cold-load time)
  and the resident forests' structure-health summaries.
* :func:`drive_open_loop` — an open-loop load driver that replays a
  :class:`~repro.stream.DataStream` against a client at its arrival
  timestamps and returns per-request records for
  :class:`~repro.evaluation.RequestTrace` (optionally tenant-tagged).

The pre-v1 unversioned routes survive as one alias table onto the
``default`` tenant's ``/v1`` routes — same handlers, byte-identical
payloads.  All endpoints share one structured error envelope (see
:mod:`repro.serving.errors`)::

    {"error": {"code": "queue_full", "message": "...", "retry_after_ms": 50}}

Fixed-budget and full-refinement requests are served by exactly the same
backend entry point a direct caller would use, so their predictions are
trace-identical to ``ServingEngine.predict_batch`` (pinned by
``benchmarks/test_serving_frontend.py`` via ``classification_trace_hash``).
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Awaitable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .admission import DeficitRoundRobin, TokenBucket
from .engine import ServingEngine
from .errors import (
    DeadlineExceededError,
    FrontendClosedError,
    FrontendError,
    QueueFullError,
    QuotaExceededError,
    error_envelope,
)
from .registry import ModelRegistry, TenantPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from ..stream.stream import DataStream, StreamItem

__all__ = [
    "ADAPTIVE",
    "AdaptiveBudgetPolicy",
    "ArrivalRateEstimator",
    "AsyncServingClient",
    "ClassifyResult",
    "DeadlineExceededError",
    "FrontendClosedError",
    "FrontendError",
    "FrontendStats",
    "HttpFrontend",
    "QueueFullError",
    "QuotaExceededError",
    "drive_open_loop",
]

#: Sentinel budget: let the front-end choose the node budget from the current
#: arrival-rate estimate (see :class:`AdaptiveBudgetPolicy`).
ADAPTIVE = "adaptive"

_UNSET = object()


def _checked_budget(budget: object, name: str) -> object:
    """``budget`` as ``None``, a positive ``int`` or the ADAPTIVE sentinel.

    Anything else (zero, negatives, floats, bools) raises ``ValueError``
    naming the parameter ``name`` that carried it.
    """
    if budget is None:
        return None
    # Equality, not identity: "adaptive" arriving from JSON/YAML is not
    # interned, yet must mean the same thing as the constant.
    if isinstance(budget, str) and budget == ADAPTIVE:
        return ADAPTIVE
    if isinstance(budget, (int, np.integer)) and not isinstance(budget, bool) and budget >= 1:
        return int(budget)
    raise ValueError(f'{name} must be a positive integer, None (null) or "{ADAPTIVE}"')


@dataclass(frozen=True)
class ClassifyResult:
    """Detailed outcome of one async classification request.

    Attributes
    ----------
    prediction:
        The predicted class label.
    node_budget:
        The per-query node budget the request was served with — the policy's
        choice for ``ADAPTIVE`` requests, the caller's value for fixed ones,
        ``None`` for full refinement.
    latency_s:
        Wall-clock from enqueue to result, including queueing and linger.
    """

    prediction: Hashable
    node_budget: Optional[int]
    latency_s: float


@dataclass
class FrontendStats:
    """Counters of the async front-end (requests, rounds, rejections).

    ``mean_adaptive_budget()`` summarises what the load-adaptive policy
    actually granted — the number the open-loop benchmark compares across
    arrival rates.
    """

    submitted: int = 0
    served: int = 0
    batches: int = 0
    rejected_queue_full: int = 0
    rejected_quota: int = 0
    rejected_deadline: int = 0
    dropped_cancelled: int = 0
    failed: int = 0
    adaptive_requests: int = 0
    adaptive_budget_sum: int = 0
    last_adaptive_budget: Optional[int] = None

    def mean_adaptive_budget(self) -> Optional[float]:
        """Mean node budget granted to ``ADAPTIVE`` requests (``None`` if none)."""
        if self.adaptive_requests == 0:
            return None
        return self.adaptive_budget_sum / self.adaptive_requests

    def snapshot(self) -> dict:
        """JSON-able copy of the counters (plus the derived mean budget)."""
        return {
            "submitted": self.submitted,
            "served": self.served,
            "batches": self.batches,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_quota": self.rejected_quota,
            "rejected_deadline": self.rejected_deadline,
            "dropped_cancelled": self.dropped_cancelled,
            "failed": self.failed,
            "adaptive_requests": self.adaptive_requests,
            "last_adaptive_budget": self.last_adaptive_budget,
            "mean_adaptive_budget": self.mean_adaptive_budget(),
        }


class ArrivalRateEstimator:
    """EWMA estimate of the request inter-arrival gap.

    Each :meth:`observe` call updates ``mean_gap_s`` with the gap since the
    previous arrival: ``gap_ewma += alpha * (gap - gap_ewma)``.  The paper's
    "varying streams" motivation maps directly: the estimated gap is the time
    the engine can expect to spend on the current request before the next one
    arrives, which the budget policy converts into node reads.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor in ``(0, 1]``; larger adapts faster to bursts.
    initial_gap_s:
        Optimistic prior for the gap before two arrivals have been seen.
    """

    def __init__(self, alpha: float = 0.2, initial_gap_s: float = 0.05) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        if initial_gap_s <= 0:
            raise ValueError("initial_gap_s must be positive")
        self.alpha = float(alpha)
        self.initial_gap_s = float(initial_gap_s)
        self.mean_gap_s = float(initial_gap_s)
        self.observations = 0
        self._last_arrival: Optional[float] = None

    def observe(self, now: float) -> float:
        """Record an arrival at time ``now`` (seconds); return the new mean gap."""
        if self._last_arrival is not None:
            gap = max(now - self._last_arrival, 1e-9)
            self.mean_gap_s += self.alpha * (gap - self.mean_gap_s)
        self._last_arrival = now
        self.observations += 1
        return self.mean_gap_s

    @property
    def rate_per_s(self) -> float:
        """Estimated arrival rate (requests per second)."""
        return 1.0 / max(self.mean_gap_s, 1e-9)

    def reset(self) -> None:
        """Forget all observations and return to the initial gap prior."""
        self.mean_gap_s = self.initial_gap_s
        self.observations = 0
        self._last_arrival = None

    def snapshot(self) -> dict:
        """JSON-able view of the estimator state."""
        return {
            "mean_gap_s": self.mean_gap_s,
            "rate_per_s": self.rate_per_s,
            "observations": self.observations,
        }


class AdaptiveBudgetPolicy:
    """Map the estimated idle time per arrival to a per-query node budget.

    ``budget = clamp(utilisation * mean_gap_s / node_cost_s)`` — of the time
    expected until the next arrival, spend a ``utilisation`` fraction on
    lockstep node reads (the rest absorbs queueing, gather and estimator
    error), at the backend's measured seconds-per-node-read cost.  Light
    traffic (large gaps) therefore refines up to ``max_budget`` nodes; a
    burst (tiny gaps) degrades to ``min_budget`` instead of queue collapse.

    Parameters
    ----------
    min_budget / max_budget:
        Inclusive clamp of the granted per-query budget.
    node_cost_s:
        Fallback seconds per lockstep node read, used until the backend has
        calibrated its own estimate from observed budgeted rounds
        (:meth:`~repro.serving.ModelRegistry.node_cost_estimate`).
    utilisation:
        Fraction of the inter-arrival gap to spend refining, in ``(0, 1]``.
    """

    def __init__(
        self,
        min_budget: int = 2,
        max_budget: int = 64,
        node_cost_s: float = 2e-4,
        utilisation: float = 0.5,
    ) -> None:
        if min_budget < 1 or max_budget < min_budget:
            raise ValueError("need 1 <= min_budget <= max_budget")
        if node_cost_s <= 0:
            raise ValueError("node_cost_s must be positive")
        if not (0.0 < utilisation <= 1.0):
            raise ValueError("utilisation must be in (0, 1]")
        self.min_budget = int(min_budget)
        self.max_budget = int(max_budget)
        self.node_cost_s = float(node_cost_s)
        self.utilisation = float(utilisation)

    def budget(self, mean_gap_s: float, node_cost_hint: Optional[float] = None) -> int:
        """Node budget for the current load level.

        Parameters
        ----------
        mean_gap_s:
            The arrival-rate estimator's current mean inter-arrival gap.
        node_cost_hint:
            The backend's calibrated cost per node read, if available;
            overrides the policy's static ``node_cost_s`` fallback.
        """
        cost = node_cost_hint if node_cost_hint and node_cost_hint > 0 else self.node_cost_s
        nodes = int(self.utilisation * max(mean_gap_s, 0.0) / cost)
        return max(self.min_budget, min(self.max_budget, nodes))


@dataclass
class _PendingRequest:
    """One queued classification awaiting a micro-batch round."""

    features: np.ndarray
    node_budget: object  # None (full refinement) | int | ADAPTIVE
    deadline: Optional[float]  # absolute loop time, None = no deadline
    future: asyncio.Future = field(repr=False)
    enqueued: float = 0.0
    tenant: str = "default"


class AsyncServingClient:
    """Asyncio-native classification client over a serving backend.

    Concurrent ``await classify(...)`` calls are coalesced by an
    event-loop-side micro-batcher into backend rounds: the first queued
    request opens a round, the round dispatches when ``max_batch`` requests
    are pending or ``linger_s`` has passed, and the blocking backend call
    runs in a worker thread so the event loop stays responsive.  Requests
    wait in per-tenant FIFO queues and rounds are assembled by a
    deficit-round-robin scheduler
    (:class:`~repro.serving.admission.DeficitRoundRobin`) weighted by each
    tenant's :class:`TenantPolicy.weight` — fairness under contention, exact
    FIFO when a single tenant is active.  Admission is bounded three ways:
    the global ``max_pending`` and the per-tenant ``max_queue_depth`` fail
    fast with :class:`QueueFullError`, and a tenant's ``requests_per_sec``
    token-bucket quota fails with :class:`QuotaExceededError` — callers see
    backpressure instead of unbounded latency.

    All methods must be called from a single asyncio event loop (the one that
    first used the client).

    Parameters
    ----------
    engine:
        A :class:`ServingEngine` serving the default tenant.  Its registry
        answers everything else (dimension, node cost, swaps, stats), while
        rounds go through :meth:`ServingEngine.predict_batch`.  The client
        does not take ownership: closing the client leaves the engine running.
    registry:
        A :class:`~repro.serving.ModelRegistry` serving every tenant, the
        default one included.  Exactly one of ``engine``/``registry`` is
        required.
    default_tenant:
        The tenant name requests without an explicit ``tenant=`` resolve to
        (the tenant the legacy unversioned HTTP routes alias onto).  With an
        ``engine`` it must be the engine's tenant, ``"default"``.
    max_batch / linger_s:
        Micro-batching knobs: a round closes when ``max_batch`` requests are
        pending or ``linger_s`` seconds after its first request.
    max_pending:
        Bound of the request queue (backpressure threshold), summed over
        every tenant's admission queue.
    default_budget:
        Budget used by :meth:`classify` calls that do not pass one:
        ``None`` (full refinement), a positive ``int``, or :data:`ADAPTIVE`.
        Anything else raises ``ValueError`` here, not on every request.
    budget_policy / estimator:
        The load-adaptive budget policy and arrival-rate estimator; default
        instances are created when omitted.
    tenant_policies:
        Optional explicit per-tenant :class:`TenantPolicy` mapping for the
        admission layer (DRR ``weight``, ``max_queue_depth``,
        ``requests_per_sec``).  Looked up before the registry's registered
        policies.  Tenants in neither source get the default policy
        (weight 1.0, no bounds).
    """

    def __init__(
        self,
        engine: Optional[ServingEngine] = None,
        max_batch: int = 256,
        linger_s: float = 0.002,
        max_pending: int = 1024,
        default_budget: object = None,
        budget_policy: Optional[AdaptiveBudgetPolicy] = None,
        estimator: Optional[ArrivalRateEstimator] = None,
        registry: Optional[ModelRegistry] = None,
        default_tenant: str = "default",
        tenant_policies: "Optional[Mapping[str, TenantPolicy]]" = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if linger_s < 0:
            raise ValueError("linger_s must be non-negative")
        if not default_tenant:
            raise ValueError("default_tenant must be a non-empty string")
        if registry is not None:
            if engine is not None:
                raise ValueError("pass an engine or a registry, not both")
            backend = registry
        elif engine is None:
            raise ValueError("need an engine or a registry")
        elif default_tenant != engine.tenant:
            raise ValueError(f"an engine serves the {engine.tenant!r} tenant")
        else:
            backend = engine.registry
        self._engine = engine
        self._registry = registry
        #: The registry that answers for every tenant (the engine's own, if any).
        self._backend = backend
        self.default_tenant = str(default_tenant)
        self.max_batch = int(max_batch)
        self.linger_s = float(linger_s)
        self.max_pending = int(max_pending)
        self.default_budget = _checked_budget(default_budget, "default_budget")
        self.budget_policy = budget_policy or AdaptiveBudgetPolicy()
        self.estimator = estimator or ArrivalRateEstimator()
        self.stats = FrontendStats()
        self._tenant_policies: Dict[str, TenantPolicy] = dict(tenant_policies or {})
        self._default_policy = TenantPolicy()
        self._admission: "DeficitRoundRobin[_PendingRequest]" = DeficitRoundRobin()
        self._buckets: Dict[str, Tuple[float, TokenBucket]] = {}
        self._wakeup = asyncio.Event()
        self._batcher: Optional[asyncio.Task] = None
        self._closed = False

    # -- public API ---------------------------------------------------------------------------
    @property
    def engine(self) -> Optional[ServingEngine]:
        """The default tenant's serving engine (``None`` for a registry client)."""
        return self._engine

    @property
    def registry(self) -> Optional[ModelRegistry]:
        """The model registry this client was given (``None`` for an engine client)."""
        return self._registry

    def _resolve_tenant(self, tenant: Optional[str]) -> str:
        """Map the request's ``tenant=`` (``None`` = default) to a concrete name."""
        if tenant is None:
            return self.default_tenant
        if not isinstance(tenant, str) or not tenant:
            raise ValueError("tenant must be a non-empty string")
        return tenant

    @property
    def queue_depth(self) -> int:
        """Number of requests currently waiting for a micro-batch round."""
        return len(self._admission)

    def _policy_for(self, tenant: str) -> TenantPolicy:
        """The admission policy governing ``tenant``'s requests right now.

        Explicit ``tenant_policies`` entries win, then the registry's
        registered policy, then the all-defaults policy — read per request,
        so a policy change applies to the next admission decision.
        """
        policy = self._tenant_policies.get(tenant)
        if policy is None:
            policy = self._backend.tenant_policy(tenant)
        return policy if policy is not None else self._default_policy

    def _bucket_for(self, tenant: str, policy: TenantPolicy) -> Optional[TokenBucket]:
        """The tenant's quota bucket (rebuilt when the policy's rate changes)."""
        rate = policy.requests_per_sec
        if rate is None:
            self._buckets.pop(tenant, None)
            return None
        cached = self._buckets.get(tenant)
        if cached is None or cached[0] != rate:
            bucket = TokenBucket(rate)
            self._buckets[tenant] = (rate, bucket)
            return bucket
        return cached[1]

    def _admit(self, tenant: str, count: int, now: float) -> TenantPolicy:
        """Run the admission checks for ``count`` requests of one tenant.

        Order: rate quota (429) first — a quota breach is the tenant's own
        doing regardless of queue state — then the global queue bound and
        the tenant's ``max_queue_depth`` (both 503).  All-or-nothing for the
        whole block, and synchronous (no awaits), so a batch admits
        atomically with respect to the event loop.  Returns the policy so
        the caller can enqueue with its DRR weight.
        """
        policy = self._policy_for(tenant)
        if count < 1:  # an empty block admits trivially (nothing to charge)
            return policy
        bucket = self._bucket_for(tenant, policy)
        if bucket is not None and not bucket.try_acquire(now, float(count)):
            self.stats.rejected_quota += count
            self._admission.record_rejection(tenant, "quota", count)
            retry_ms = max(1, math.ceil(bucket.retry_after_s(now, float(count)) * 1e3))
            noun = "request" if count == 1 else f"batch of {count}"
            raise QuotaExceededError(
                f"tenant {tenant!r} quota of {policy.requests_per_sec:g} requests/s "
                f"cannot admit this {noun}; retry later",
                retry_after_ms=retry_ms,
            )
        if len(self._admission) + count > self.max_pending:
            self.stats.rejected_queue_full += count
            self._admission.record_rejection(tenant, "queue_full", count)
            if count == 1:
                raise QueueFullError(
                    f"request queue is full ({self.max_pending} pending); retry later"
                )
            raise QueueFullError(
                f"batch of {count} does not fit the request queue "
                f"({self.max_pending - len(self._admission)} slots free)"
            )
        depth_limit = policy.max_queue_depth
        if depth_limit is not None and self._admission.queue_depth(tenant) + count > depth_limit:
            self.stats.rejected_queue_full += count
            self._admission.record_rejection(tenant, "queue_full", count)
            raise QueueFullError(
                f"tenant {tenant!r} queue is full ({depth_limit} pending allowed); retry later"
            )
        return policy

    async def classify(
        self,
        features: Sequence[float] | np.ndarray,
        node_budget: object = _UNSET,
        deadline_ms: Optional[float] = None,
        detail: bool = False,
        tenant: Optional[str] = None,
    ) -> "ClassifyResult | Hashable":
        """Classify one feature vector through the micro-batched backend.

        Parameters
        ----------
        features:
            One ``(dimension,)`` feature vector.
        node_budget:
            ``None`` for full refinement, a positive ``int`` for a fixed
            anytime budget, or :data:`ADAPTIVE` to let the arrival-rate
            policy choose.  Defaults to the client's ``default_budget``.
        deadline_ms:
            Optional end-to-end deadline in milliseconds.  A request that
            cannot produce its result in time fails with
            :class:`DeadlineExceededError` and is dropped from any later
            round.
        detail:
            When true, return a :class:`ClassifyResult` (prediction, granted
            budget, latency) instead of the bare label.
        tenant:
            Which tenant's model serves the request (``None`` = the client's
            ``default_tenant``).

        Returns
        -------
        The predicted label, or a :class:`ClassifyResult` when ``detail``.

        Raises
        ------
        QueueFullError
            If ``max_pending`` requests are already queued, or the tenant's
            own ``max_queue_depth`` is reached (backpressure).
        QuotaExceededError
            If the tenant's ``requests_per_sec`` quota is exhausted (the
            HTTP 429; carries a ``retry_after_ms`` from the refill rate).
        DeadlineExceededError
            If the deadline passes before the result is available.
        FrontendClosedError
            If the client is closed (or closes without draining).
        TenantNotFoundError
            If the tenant resolves to no model (an unregistered tenant
            without a prior snapshot).
        ValueError
            If ``features`` does not match the tenant's model dimension, or
            ``node_budget`` is not a positive integer, ``None`` or
            :data:`ADAPTIVE` (checked before admission).
        """
        features = np.asarray(features, dtype=float)
        resolved_tenant = self._resolve_tenant(tenant)
        expected = self._backend.expected_dimension(resolved_tenant)
        if features.ndim != 1 or (expected is not None and features.shape != (expected,)):
            raise ValueError(f"features must have shape ({expected or 'dimension'},)")
        budget = self._normalize_budget(node_budget)
        if self._closed:
            raise FrontendClosedError("async serving client is closed")
        loop = asyncio.get_running_loop()
        now = loop.time()
        # Every arrival — including ones about to be rejected — is load
        # signal, so the estimator observes before the admission checks.
        self.estimator.observe(now)
        policy = self._admit(resolved_tenant, 1, now)
        request = self._enqueue(
            features, budget, deadline_ms, now, loop, resolved_tenant, policy.weight
        )
        result = await self._await_result(request, deadline_ms, now)
        if detail:
            return ClassifyResult(
                prediction=result[0], node_budget=result[1], latency_s=loop.time() - now
            )
        return result[0]

    def _normalize_budget(self, node_budget: object) -> object:
        """Resolve a request budget to ``None``, a positive ``int`` or the ADAPTIVE sentinel.

        Anything else (zero, negatives, floats, bools) raises ``ValueError``
        before admission: a bad budget charges no quota and never joins a
        round, where it would fail every request coalesced with it.
        """
        budget = self.default_budget if node_budget is _UNSET else node_budget
        return _checked_budget(budget, "node_budget")

    def _enqueue(
        self,
        features: np.ndarray,
        budget: object,
        deadline_ms: Optional[float],
        now: float,
        loop: asyncio.AbstractEventLoop,
        tenant: str,
        weight: float,
    ) -> _PendingRequest:
        """Append one admitted request to its tenant queue and wake the batcher.

        Synchronous (no awaits), so a caller can admit a whole block
        atomically with respect to the event loop.
        """
        request = _PendingRequest(
            features=features,
            node_budget=budget,
            deadline=None if deadline_ms is None else now + float(deadline_ms) / 1e3,
            future=loop.create_future(),
            enqueued=now,
            tenant=tenant,
        )
        self._admission.enqueue(tenant, request, weight)
        self.stats.submitted += 1
        self._ensure_batcher()
        self._wakeup.set()
        return request

    async def _await_result(
        self, request: _PendingRequest, deadline_ms: Optional[float], now: float
    ) -> "Tuple[Hashable, Optional[int]]":
        if request.deadline is None:
            return await request.future
        try:
            return await asyncio.wait_for(request.future, request.deadline - now)
        except asyncio.TimeoutError:
            self.stats.rejected_deadline += 1
            raise DeadlineExceededError(
                f"deadline of {deadline_ms:g} ms exceeded before a result was available"
            ) from None

    async def classify_batch(
        self,
        queries: np.ndarray,
        node_budget: object = _UNSET,
        deadline_ms: Optional[float] = None,
        tenant: Optional[str] = None,
    ) -> List[Hashable]:
        """Classify a ``(m, dimension)`` block; returns labels in query order.

        Each row rides the shared micro-batcher as an individual request (so
        it coalesces with concurrent callers); admission is all-or-nothing
        and atomic — every row is enqueued without yielding to the event
        loop, so either the whole block is queued or none of it is and
        :class:`QueueFullError` (or :class:`QuotaExceededError`, for a
        block the tenant's rate quota cannot afford) is raised.  ``tenant``
        routes the whole block to one tenant's model, as in
        :meth:`classify`.  Raises like :meth:`classify` otherwise.
        """
        queries = np.asarray(queries, dtype=float)
        resolved_tenant = self._resolve_tenant(tenant)
        expected = self._backend.expected_dimension(resolved_tenant)
        if queries.ndim != 2 or (expected is not None and queries.shape[1] != expected):
            raise ValueError(f"queries must be an (m, {expected or 'dimension'}) array")
        budget = self._normalize_budget(node_budget)
        if self._closed:
            raise FrontendClosedError("async serving client is closed")
        loop = asyncio.get_running_loop()
        now = loop.time()
        for _ in range(queries.shape[0]):
            self.estimator.observe(now)
        policy = self._admit(resolved_tenant, queries.shape[0], now)
        requests = [
            self._enqueue(row, budget, deadline_ms, now, loop, resolved_tenant, policy.weight)
            for row in queries
        ]
        results = await asyncio.gather(
            *(self._await_result(request, deadline_ms, now) for request in requests)
        )
        return [result[0] for result in results]

    async def swap_snapshot(
        self, snapshot_path: "str | Path", tenant: Optional[str] = None
    ) -> None:
        """Hot-swap one tenant's model to a new snapshot without dropping requests.

        Runs :meth:`ModelRegistry.load` on the backend registry in a worker
        thread (registering the tenant if needed).  The old snapshot keeps
        serving while the new one builds; the tenant's rounds park only
        while its in-flight rounds drain, and later rounds are served by the
        new snapshot.  A snapshot re-saved at the tenant's current path is
        swapped in; the same unchanged file is a no-op.  Raises whatever
        the registry's validation raises (bad container, dimension
        mismatch).
        """
        loop = asyncio.get_running_loop()
        load = functools.partial(self._backend.load, self._resolve_tenant(tenant), snapshot_path)
        await loop.run_in_executor(None, load)

    def stats_snapshot(self) -> dict:
        """JSON-able front-end stats: counters, queues, arrival estimate.

        Since schema_version 3 the document nests the admission layer's
        view under ``"admission"`` — DRR rounds plus, per tenant, queue
        depth, weight, deficit, granted(-round) share and the rejection mix
        (see :meth:`DeficitRoundRobin.snapshot`).
        """
        snapshot = self.stats.snapshot()
        snapshot["queue_depth"] = self.queue_depth
        snapshot["max_pending"] = self.max_pending
        snapshot["arrival"] = self.estimator.snapshot()
        snapshot["admission"] = self._admission.snapshot()
        return snapshot

    def tenant_admission_snapshot(self, tenant: Optional[str] = None) -> dict:
        """One tenant's admission view: queue depth, deficit, shares, rejections.

        The per-tenant slice of ``stats_snapshot()["admission"]`` plus the
        tenant's configured admission policy — the document the
        ``/v1/tenants/{tenant}/stats`` route nests under ``"admission"``.
        """
        resolved = self._resolve_tenant(tenant)
        doc = self._admission.tenant_snapshot(resolved)
        policy = self._policy_for(resolved)
        doc["policy"] = {
            "weight": policy.weight,
            "max_queue_depth": policy.max_queue_depth,
            "requests_per_sec": policy.requests_per_sec,
        }
        return doc

    async def aclose(self, drain: bool = True) -> None:
        """Shut the client down; idempotent.

        With ``drain=True`` (default) already-queued requests are still
        served before the batcher exits; with ``drain=False`` they fail
        immediately with :class:`FrontendClosedError`.  Either way every
        pending future is resolved — no waiter is left hanging — and later
        :meth:`classify` calls raise :class:`FrontendClosedError`.  The
        underlying engine or registry stays open (the caller owns it).
        """
        if self._closed:
            return
        self._closed = True
        self._wakeup.set()
        if not drain:
            self._fail_pending(FrontendClosedError("async serving client closed"))
        if self._batcher is not None:
            await self._batcher
            self._batcher = None
        # A non-drain close may have raced requests into the queue after the
        # batcher exited; make sure nothing is left unresolved.
        self._fail_pending(FrontendClosedError("async serving client closed"))

    async def __aenter__(self) -> "AsyncServingClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # -- micro-batcher ------------------------------------------------------------------------
    def _ensure_batcher(self) -> None:
        if self._batcher is None or self._batcher.done():
            self._batcher = asyncio.get_running_loop().create_task(
                self._batch_loop(), name="serving-frontend-batcher"
            )

    def _fail_pending(self, error: Exception) -> None:
        for request in self._admission.drain():
            if not request.future.done():
                request.future.set_exception(error)

    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            while not len(self._admission):
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
            if self.linger_s > 0 and not self._closed:
                # Linger: let the round fill towards max_batch before
                # dispatching.
                round_deadline = loop.time() + self.linger_s
                while len(self._admission) < self.max_batch and not self._closed:
                    remaining = round_deadline - loop.time()
                    if remaining <= 0:
                        break
                    self._wakeup.clear()
                    try:
                        await asyncio.wait_for(self._wakeup.wait(), remaining)
                    except asyncio.TimeoutError:
                        break
            # The DRR scheduler assembles the round: weighted-fair across
            # backlogged tenants, FIFO within each — a single-tenant queue
            # degenerates to exactly the old FIFO pop (trace identity).
            batch = self._admission.take(self.max_batch)
            if batch:
                await self._serve_round(batch)

    async def _serve_round(self, batch: List[_PendingRequest]) -> None:
        # Requests whose waiter gave up (deadline timeout cancels the future)
        # are dropped before any backend work is spent on them.
        live: List[_PendingRequest] = []
        for request in batch:
            if request.future.done():
                self.stats.dropped_cancelled += 1
            else:
                live.append(request)
        if not live:
            return
        # Rounds are homogeneous in (tenant, budgeted-ness): different tenants
        # hit different models, and full-refinement vs budgeted requests take
        # different drivers.  Grouping preserves arrival order within
        # each group, which is what keeps per-tenant traces deterministic.
        groups: "Dict[Tuple[str, bool], List[_PendingRequest]]" = {}
        for request in live:
            groups.setdefault((request.tenant, request.node_budget is None), []).append(request)
        rounds: List[Awaitable[None]] = []
        for (tenant, unbudgeted), group in groups.items():
            budgets = None if unbudgeted else self._resolve_budgets(group)
            rounds.append(self._execute_group(group, budgets=budgets, tenant=tenant))
        # The backend serves concurrent rounds (a swap drains them all), so
        # the slow full-refinement round must not delay the
        # deadline-carrying budgeted one behind it.
        await asyncio.gather(*rounds)

    def _resolve_budgets(self, budgeted: List[_PendingRequest]) -> List[int]:
        """Fix per-request budgets; ADAPTIVE ones get the policy's choice.

        The adaptive choice is additionally clamped by the tightest remaining
        deadline among the *adaptive* requests (translated into affordable
        node reads via the backend's calibrated cost).  Fixed-budget requests
        are never clamped — their trace identity with direct
        ``predict_batch`` is part of the contract, which is why the clamp
        happens here on the adaptive choice alone and never on the whole
        round.
        """
        adaptive = [request for request in budgeted if request.node_budget is ADAPTIVE]
        chosen: Optional[int] = None
        if adaptive:
            chosen = self.budget_policy.budget(
                self.estimator.mean_gap_s, node_cost_hint=self._backend.node_cost_estimate()
            )
            deadlines = [request.deadline for request in adaptive if request.deadline is not None]
            if deadlines:
                cost = self._backend.node_cost_estimate()
                if cost is not None and cost > 0:
                    loop = asyncio.get_running_loop()
                    remaining = max(min(deadlines) - loop.time(), 0.0)
                    chosen = max(1, min(chosen, int(remaining / cost)))
            self.stats.adaptive_requests += len(adaptive)
            self.stats.adaptive_budget_sum += chosen * len(adaptive)
            self.stats.last_adaptive_budget = chosen
        return [
            chosen if request.node_budget is ADAPTIVE else int(request.node_budget)
            for request in budgeted
        ]

    async def _execute_group(
        self, group: List[_PendingRequest], budgets: Optional[List[int]], tenant: str
    ) -> None:
        loop = asyncio.get_running_loop()
        self.stats.batches += 1
        try:
            # Rows of another dimension (validation deferred while the
            # tenant was not resident) fail the round here, not the batcher.
            features = np.stack([request.features for request in group])
            if self._engine is not None and tenant == self.default_tenant:
                # Engine rounds go through ServingEngine.predict_batch itself,
                # the entry point a direct caller (or an instrumenting wrapper)
                # sees.
                call = functools.partial(
                    self._engine.predict_batch, features, node_budget=budgets
                )
            else:
                call = functools.partial(
                    self._backend.predict_batch, tenant, features, node_budget=budgets
                )
            predictions = await loop.run_in_executor(None, call)
        except Exception as error:  # propagate to every live waiter in the round
            for request in group:
                if not request.future.done():
                    self.stats.failed += 1
                    request.future.set_exception(error)
            return
        for index, (request, prediction) in enumerate(zip(group, predictions)):
            if not request.future.done():
                granted = None if budgets is None else budgets[index]
                request.future.set_result((prediction, granted))
                self.stats.served += 1


# -- open-loop load driver --------------------------------------------------------------------
async def drive_open_loop(
    client: AsyncServingClient,
    stream: "DataStream",
    speed: float = 1.0,
    limit: Optional[int] = None,
    node_budget: object = _UNSET,
    deadline_ms: Optional[float] = None,
    tenant: Optional[str] = None,
) -> List[dict]:
    """Replay a :class:`~repro.stream.DataStream` against a client, open loop.

    Requests are fired at the stream's arrival timestamps (scaled by
    ``speed``; see :func:`repro.stream.aiter_items`) *without waiting for
    earlier responses* — the generator does not slow down when the server
    falls behind, which is what makes queue-full rejections, quota breaches
    and deadline misses observable.  Returns one record dict per stream item
    (``index``, ``arrival_time``, ``label``, ``status`` of ``"ok" |
    "deadline" | "quota" | "rejected" | "closed"``, and for served requests
    ``prediction``,
    ``node_budget``, ``latency_s``) suitable for
    :meth:`repro.evaluation.RequestTrace.from_records`.  When ``tenant`` is
    given, every request routes to that tenant's model and every record is
    tagged with a ``tenant`` key, so traces from a multi-tenant soak can be
    sliced per tenant.
    """
    from ..stream.load_gen import aiter_items

    records: List[dict] = []
    tasks: List[asyncio.Task] = []

    async def one(item: "StreamItem") -> None:
        record = {
            "index": item.index,
            "arrival_time": item.arrival_time,
            "label": item.label,
        }
        if tenant is not None:
            record["tenant"] = tenant
        try:
            result = await client.classify(
                item.features,
                node_budget=node_budget,
                deadline_ms=deadline_ms,
                detail=True,
                tenant=tenant,
            )
        except DeadlineExceededError:
            record.update(status="deadline")
        except QuotaExceededError:
            record.update(status="quota")
        except QueueFullError:
            record.update(status="rejected")
        except FrontendClosedError:
            record.update(status="closed")
        else:
            record.update(
                status="ok",
                prediction=result.prediction,
                node_budget=result.node_budget,
                latency_s=result.latency_s,
            )
        records.append(record)

    async for item in aiter_items(stream, speed=speed, limit=limit):
        tasks.append(asyncio.ensure_future(one(item)))
    if tasks:
        await asyncio.gather(*tasks)
    records.sort(key=lambda record: record["index"])
    return records


# -- HTTP shim --------------------------------------------------------------------------------
def _jsonable(value: object) -> object:
    """Coerce numpy scalars/arrays (labels, budgets) into JSON-able values."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


class _HttpError(Exception):
    """Internal: an HTTP error response with status, stable code and message."""

    def __init__(self, status: int, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code if code is not None else ("not_found" if status == 404 else "bad_request")


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_LINES = 64

#: Pre-v1 unversioned routes, each an alias of the default tenant's v1 action.
_LEGACY_ROUTES = {"/classify": "classify", "/classify_batch": "classify_batch", "/swap": "swap"}


class HttpFrontend:
    """Minimal stdlib HTTP/1.1 shim over an :class:`AsyncServingClient`.

    One JSON document per request and response body.  The **v1 surface** is
    tenant-scoped; the pre-v1 unversioned ``/classify``, ``/classify_batch``
    and ``/swap`` are one alias table onto the client's default tenant's
    ``/v1`` routes (same handlers, byte-identical payloads).  Whatever backs
    the client, its registry (an engine's own, for an engine client)
    answers the swap, stats and health routes.

    ``POST /v1/tenants/{tenant}/classify`` (alias ``POST /classify``)
        Body ``{"features": [...], "node_budget": int | null | "adaptive",
        "deadline_ms": number}`` (budget and deadline optional).  Example
        response::

            {"prediction": 4, "node_budget": 8, "latency_ms": 1.93}

    ``POST /v1/tenants/{tenant}/classify_batch`` (alias ``POST /classify_batch``)
        Body ``{"features": [[...], ...], ...}`` — one budget/deadline for
        the whole block.  Example response::

            {"predictions": [4, 0, 9], "count": 3}

    ``POST /v1/tenants/{tenant}/swap`` (alias ``POST /swap``)
        Body ``{"snapshot_path": "..."}``; hot-swaps that tenant's model
        (a registry load: drain, replace, release the old store).  Example
        response::

            {"swapped": true, "tenant": "default", "snapshot_path": "/tmp/f.npz"}

    ``GET /v1/tenants/{tenant}/stats``
        That tenant's stats document (per-tenant nesting of the registry's
        ``stats_snapshot()``), its forest structure-health summary
        (computed on request; ``null`` when not resident) and its front-end
        admission view (queue depth, DRR weight/deficit, granted-round
        share, rejection mix).  Example response::

            {"tenant": "acme", "resident": true, "shm_bytes": 1048576,
             "decay_rate": 0.01, "requests": 128, "cold_load_ms": 2.4,
             "policy": {"max_node_budget": 32, "pinned": false, ...},
             "structure": {"n_classes": 10, "total_kernels": 800, ...},
             "admission": {"queue_depth": 3, "weight": 2.0, "deficit": 0.0,
                           "granted_round_share": 0.4,
                           "rejected_quota": 7, ...}, ...}

    ``GET /v1/registry``
        Registry-wide view: bounds, counters and the per-tenant nesting;
        404 for an engine client.  Example response::

            {"schema_version": 5, "capacity": 4, "resident": 2,
             "resident_bytes": 2097152, "counters": {"loads": 7,
             "evictions": 3, ...}, "tenants": {"acme": {...}, ...}}

    ``POST /v1/registry/load`` / ``POST /v1/registry/evict``
        Body ``{"tenant": "acme", "snapshot_path": "..."}`` (path optional
        for registered tenants) / ``{"tenant": "acme"}``.  Load responds
        with the tenant's stats document; evict responds
        ``{"evicted": true, "tenant": "acme"}``.

    ``GET /healthz``
        Liveness plus deployment facts: the default tenant's snapshot
        (``null`` when it is not registered) and the registered tenants.
        Example response::

            {"status": "ok", "snapshot_path": "/tmp/forest.npz", "tenants": 1}

    ``GET /stats``
        One merged document: ``schema_version``, the front-end counters,
        the registry's tenant-nested ``stats_snapshot()`` and each resident
        tenant's forest structure-health summary, computed on request.
        Example response (abridged)::

            {"schema_version": 6,
             "frontend": {"submitted": 512, "served": 510,
                          "rejected_queue_full": 2, "rejected_quota": 7,
                          "queue_depth": 0,
                          "arrival": {"rate_per_s": 350.0, ...},
                          "admission": {"rounds": 40, "tenants": {...}}, ...},
             "registry": {"schema_version": 5, "resident": 1,
                          "counters": {"loads": 1, ...},
                          "tenants": {"default": {"shm_bytes": 2097152,
                                                  "cold_load_ms": 21.4, ...}}, ...},
             "structure": {"default": {"n_classes": 10, "total_kernels": 1600, ...}}}

    Every error, on every endpoint, uses one structured envelope
    (:func:`repro.serving.errors.error_envelope`)::

        {"error": {"code": "queue_full", "message": "...", "retry_after_ms": 50}}

    Backpressure, quotas and deadlines map onto status codes: a full queue
    (global or per-tenant) responds ``503``, a tenant over its
    ``requests_per_sec`` quota ``429``, a missed deadline ``504``, malformed
    requests (including malformed JSON bodies) ``400``, unknown tenants
    ``404``.  **Every 429 and 503 carries a ``Retry-After`` header**: the
    envelope's ``retry_after_ms`` rounded *up* to whole seconds, so a client
    honouring either never retries early.  The server binds with
    :func:`asyncio.start_server`;
    no third-party HTTP stack is required (an ``aiohttp`` front could serve
    the same client, but the stdlib shim keeps the dependency surface at
    zero).

    Use as an async context manager, or call :meth:`start` / :meth:`aclose`.
    """

    def __init__(self, client: AsyncServingClient, host: str = "127.0.0.1", port: int = 0) -> None:
        self._client = client
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        """Bind and start accepting connections (``port=0`` picks a free port)."""
        if self._server is not None:
            raise RuntimeError("HTTP front-end already started")
        self._server = await asyncio.start_server(self._handle_connection, self._host, self._port)

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the server is bound to (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("HTTP front-end is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def aclose(self) -> None:
        """Stop accepting connections and wait for the server to close."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "HttpFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # -- connection handling ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                except _HttpError as error:
                    # Unparseable request: answer 400 and drop the connection
                    # (framing is unknown from here on) instead of letting the
                    # task die with no response on the wire.
                    status, payload = error_envelope(
                        error, code=error.code, status=error.status
                    )
                    await self._write_response(writer, status, payload, keep_alive=False)
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                try:
                    status, payload = await self._dispatch(method, path, body)
                except _HttpError as error:
                    status, payload = error_envelope(
                        error, code=error.code, status=error.status
                    )
                except Exception as error:  # noqa: BLE001 - survive handler bugs per-request
                    # One taxonomy for everything else: ServingError subclasses
                    # carry their own code/status/retry hint, the bad-request
                    # families map to 400, genuine bugs to a diagnosable 500.
                    status, payload = error_envelope(error)
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - peer races
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> "Optional[Tuple[str, str, dict, bytes]]":
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, "too many headers")
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "invalid Content-Length header") from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise _HttpError(400, "invalid request body length")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _write_response(
        self, writer: asyncio.StreamWriter, status: int, payload: dict, keep_alive: bool
    ) -> None:
        body = (json.dumps(payload, default=_jsonable) + "\n").encode("utf-8")
        reason = _STATUS_TEXT.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if status in (429, 503):
            # Retry-After is whole seconds on the wire, rounded up so it never
            # undercuts the envelope's retry_after_ms (present on every 429/503).
            error_body = payload.get("error") if isinstance(payload.get("error"), dict) else {}
            retry_ms = error_body.get("retry_after_ms", 0) or 0
            headers.append(f"Retry-After: {max(0, math.ceil(retry_ms / 1000.0))}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # -- routing ------------------------------------------------------------------------------
    @staticmethod
    def _parse_body(body: bytes) -> dict:
        if not body:
            raise _HttpError(400, "missing JSON request body")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise _HttpError(400, f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "JSON body must be an object")
        return payload

    @staticmethod
    def _tenant_route(path: str) -> "Optional[Tuple[str, str]]":
        """Split ``/v1/tenants/{tenant}/{action}`` into ``(tenant, action)``."""
        if not path.startswith("/v1/tenants/"):
            return None
        remainder = path[len("/v1/tenants/") :]
        tenant, separator, action = remainder.partition("/")
        if not tenant or not separator or not action or "/" in action:
            raise _HttpError(404, f"malformed tenant route {path!r}")
        return tenant, action

    def _registry_or_404(self) -> ModelRegistry:
        registry = self._client.registry
        if registry is None:
            raise _HttpError(404, "no model registry is configured on this server")
        return registry

    async def _handle_classify(self, tenant: str, body: bytes) -> "Tuple[int, dict]":
        payload = self._parse_body(body)
        result = await self._client.classify(
            np.asarray(payload["features"], dtype=float),
            node_budget=payload.get("node_budget", _UNSET),
            deadline_ms=payload.get("deadline_ms"),
            detail=True,
            tenant=tenant,
        )
        return 200, {
            "prediction": result.prediction,
            "node_budget": result.node_budget,
            "latency_ms": result.latency_s * 1e3,
        }

    async def _handle_classify_batch(self, tenant: str, body: bytes) -> "Tuple[int, dict]":
        payload = self._parse_body(body)
        queries = np.asarray(payload["features"], dtype=float)
        predictions = await self._client.classify_batch(
            queries,
            node_budget=payload.get("node_budget", _UNSET),
            deadline_ms=payload.get("deadline_ms"),
            tenant=tenant,
        )
        return 200, {"predictions": predictions, "count": len(predictions)}

    async def _handle_swap(self, tenant: str, body: bytes) -> "Tuple[int, dict]":
        payload = self._parse_body(body)
        snapshot_path = str(payload["snapshot_path"])
        await self._client.swap_snapshot(snapshot_path, tenant=tenant)
        return 200, {"swapped": True, "tenant": tenant, "snapshot_path": snapshot_path}

    def _handle_tenant_stats(self, tenant: str) -> "Tuple[int, dict]":
        backend = self._client._backend
        stats = backend.tenant_stats(tenant)  # TenantNotFoundError -> 404
        stats["structure"] = backend.structure_stats(tenant)
        stats["admission"] = self._client.tenant_admission_snapshot(tenant)
        return 200, stats

    async def _dispatch(self, method: str, path: str, body: bytes) -> "Tuple[int, dict]":
        client = self._client
        backend = client._backend
        alias = _LEGACY_ROUTES.get(path)
        if alias is not None:
            path = f"/v1/tenants/{client.default_tenant}/{alias}"
        tenant_route = self._tenant_route(path)
        if tenant_route is not None:
            tenant, action = tenant_route
            if action == "classify" and method == "POST":
                return await self._handle_classify(tenant, body)
            if action == "classify_batch" and method == "POST":
                return await self._handle_classify_batch(tenant, body)
            if action == "swap" and method == "POST":
                return await self._handle_swap(tenant, body)
            if action == "stats" and method == "GET":
                return self._handle_tenant_stats(tenant)
            raise _HttpError(404, f"no route for {method} {path}")
        if path == "/v1/registry" and method == "GET":
            return 200, self._registry_or_404().stats_snapshot()
        if path == "/v1/registry/load" and method == "POST":
            registry = self._registry_or_404()
            payload = self._parse_body(body)
            tenant_name = str(payload["tenant"])
            snapshot = payload.get("snapshot_path")
            loop = asyncio.get_running_loop()
            stats = await loop.run_in_executor(
                None,
                functools.partial(
                    registry.load,
                    tenant_name,
                    None if snapshot is None else str(snapshot),
                ),
            )
            return 200, stats
        if path == "/v1/registry/evict" and method == "POST":
            registry = self._registry_or_404()
            payload = self._parse_body(body)
            tenant_name = str(payload["tenant"])
            loop = asyncio.get_running_loop()
            evicted = await loop.run_in_executor(None, registry.evict, tenant_name)
            return 200, {"evicted": bool(evicted), "tenant": tenant_name}
        if path == "/healthz" and method == "GET":
            tenants = backend.known_tenants()
            default_path = (
                backend.tenant_stats(client.default_tenant)["snapshot_path"]
                if client.default_tenant in tenants
                else None
            )
            return 200, {
                "status": "ok",
                "snapshot_path": default_path,
                "tenants": len(tenants),
            }
        if path == "/stats" and method == "GET":
            return 200, {
                "schema_version": 6,
                "frontend": client.stats_snapshot(),
                "registry": backend.stats_snapshot(),
                "structure": {
                    tenant: backend.structure_stats(tenant)
                    for tenant in backend.resident_tenants()
                },
            }
        raise _HttpError(404, f"no route for {method} {path}")

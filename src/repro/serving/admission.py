"""Fair multi-tenant admission: deficit-round-robin queues and token-bucket quotas.

PR 9 made the serving backend a *shared* resource across tenants, which turned
admission into a fairness problem: with one bounded FIFO queue in front of
the micro-batcher, a single hot tenant fills the queue and every other
tenant's requests are rejected or starved behind its backlog.  The anytime
premise of the paper — degrade *each object's* refinement gracefully under
load, never collapse to zero — has a serving-side analogue: degrade *each
tenant's* throughput proportionally to its configured weight, never let one
tenant's burst zero out the rest.

This module provides the two mechanisms the front-end composes:

* :class:`DeficitRoundRobin` — a deficit-round-robin (DRR, Shreedhar &
  Varghese) scheduler over per-tenant FIFO queues.  Each scheduling visit
  credits a tenant ``quantum * weight`` deficit; one queued request costs
  one unit of deficit to release.  Rotation over the non-empty queues gives
  every backlogged tenant a granted share proportional to its weight,
  within one batch of rounding (the bound pinned by
  ``tests/serving/test_admission.py``), while a tenant's own requests stay
  strictly FIFO.  The scheduler is work-conserving: as long as any queue is
  non-empty, :meth:`~DeficitRoundRobin.take` returns at least one item.
* :class:`TokenBucket` — the per-tenant ``requests_per_sec`` quota.  Unlike
  the DRR weights (which divide capacity *under contention*), the bucket
  caps a tenant's *offered* rate outright; a breach maps to the enveloped
  HTTP 429 (:class:`~repro.serving.errors.QuotaExceededError`) with a
  ``Retry-After`` hint computed from the refill rate.

Both classes take ``now`` (seconds, any monotonic origin) as an explicit
parameter instead of reading a wall clock — the same logical-clock
discipline the decay layer follows — so schedules replay deterministically
in tests and the caller can feed ``loop.time()``.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Generic, List, Optional, Tuple, TypeVar

__all__ = ["DeficitRoundRobin", "TenantQueueStats", "TokenBucket"]

T = TypeVar("T")

#: The rejection kinds :meth:`DeficitRoundRobin.record_rejection` tallies —
#: the per-tenant "rejection mix" surfaced in ``stats_snapshot()``.
_REJECTION_KINDS = ("queue_full", "quota")


@dataclass
class TenantQueueStats:
    """Admission counters for one tenant (survive the queue emptying).

    Attributes
    ----------
    weight:
        The tenant's most recently observed DRR weight.
    deficit:
        Unspent scheduling credit carried between rounds (bounded by one
        visit's ``quantum * weight`` plus one request cost).
    enqueued:
        Requests admitted into the tenant's queue, lifetime.
    granted:
        Requests released into micro-batch rounds, lifetime.
    granted_rounds:
        Rounds in which the tenant contributed at least one request — with
        :attr:`DeficitRoundRobin.rounds` this is the granted-round share.
    rejected_queue_full:
        Requests rejected for depth (global or per-tenant bound), as
        recorded by the admitting front-end.
    rejected_quota:
        Requests rejected by the tenant's rate quota (HTTP 429).
    """

    weight: float = 1.0
    deficit: float = 0.0
    enqueued: int = 0
    granted: int = 0
    granted_rounds: int = 0
    rejected_queue_full: int = 0
    rejected_quota: int = 0

    def snapshot(self, queue_depth: int, total_rounds: int) -> dict:
        """JSON-able view of the counters plus the live queue depth."""
        return {
            "weight": self.weight,
            "deficit": self.deficit,
            "queue_depth": queue_depth,
            "enqueued": self.enqueued,
            "granted": self.granted,
            "granted_rounds": self.granted_rounds,
            "granted_round_share": (
                self.granted_rounds / total_rounds if total_rounds else None
            ),
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_quota": self.rejected_quota,
        }


class DeficitRoundRobin(Generic[T]):
    """Deficit-round-robin scheduler over per-tenant FIFO queues.

    Each call to :meth:`take` assembles one micro-batch round: the scheduler
    visits the non-empty tenant queues in rotation, tops a visited tenant's
    deficit up by ``quantum * weight`` when it cannot afford a request, and
    releases queued requests (one unit of deficit each, strictly FIFO within
    the tenant) until the tenant runs out of credit or requests, or the
    round is full.  A tenant whose queue empties forfeits its leftover
    deficit (classic DRR — credit never accumulates while idle), which is
    what bounds long-run unfairness to one round of rounding.

    The scheduler itself never rejects — depth and quota enforcement happen
    at admission in the front-end, which calls :meth:`record_rejection` so
    the per-tenant rejection mix lands in the same snapshot.

    Parameters
    ----------
    quantum:
        Deficit credited per visit to a weight-1.0 tenant.  The default of
        ``1.0`` releases about one request per visit per weight unit;
        larger quanta trade scheduling overhead for burstier interleaving.
    """

    def __init__(self, quantum: float = 1.0) -> None:
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = float(quantum)
        self._queues: "OrderedDict[str, Deque[T]]" = OrderedDict()
        self._stats: Dict[str, TenantQueueStats] = {}
        self._depth = 0
        self._rounds = 0

    def __len__(self) -> int:
        """Total queued requests across every tenant."""
        return self._depth

    @property
    def rounds(self) -> int:
        """Rounds assembled so far (``take`` calls that released anything)."""
        return self._rounds

    def queue_depth(self, tenant: str) -> int:
        """Queued requests for one tenant (0 for unknown tenants)."""
        queue = self._queues.get(tenant)
        return len(queue) if queue is not None else 0

    def _tenant_stats(self, tenant: str, weight: Optional[float] = None) -> TenantQueueStats:
        stats = self._stats.get(tenant)
        if stats is None:
            stats = self._stats[tenant] = TenantQueueStats()
        if weight is not None:
            stats.weight = weight
        return stats

    def enqueue(self, tenant: str, item: T, weight: float = 1.0) -> None:
        """Append one request to ``tenant``'s queue with its current weight.

        ``weight`` must be positive (a zero weight would break work
        conservation — the tenant could never earn credit).  The most recent
        weight wins for the tenant's future scheduling visits, so policy
        changes take effect without draining the queue.
        """
        weight = float(weight)
        if weight <= 0:
            raise ValueError("tenant weight must be positive")
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        queue.append(item)
        self._depth += 1
        self._tenant_stats(tenant, weight).enqueued += 1

    def record_rejection(self, tenant: str, kind: str, count: int = 1) -> None:
        """Tally ``count`` admission rejections (``"queue_full"`` or ``"quota"``)."""
        if kind not in _REJECTION_KINDS:
            raise ValueError(f"unknown rejection kind {kind!r}")
        if count < 1:
            raise ValueError("count must be at least 1")
        stats = self._tenant_stats(tenant)
        if kind == "quota":
            stats.rejected_quota += count
        else:
            stats.rejected_queue_full += count

    def take(self, limit: int) -> List[T]:
        """Assemble one round of up to ``limit`` requests in DRR order.

        Work-conserving: returns a non-empty list whenever any queue is
        non-empty and ``limit >= 1``.  Requests of one tenant come out in
        the order they were enqueued (FIFO within tenant); the interleaving
        *across* tenants follows the deficit rotation.
        """
        if limit < 1:
            raise ValueError("limit must be at least 1")
        taken: List[T] = []
        if not self._queues:
            return taken
        contributed: Dict[str, int] = {}
        while len(taken) < limit and self._queues:
            tenant, queue = next(iter(self._queues.items()))
            stats = self._tenant_stats(tenant)
            if stats.deficit < 1.0:
                # Top up at most once per visit; a fractional weight may
                # need several visits (rotations) to afford one request,
                # which is exactly how it earns a sub-1.0 share.
                stats.deficit += self.quantum * stats.weight
            while queue and stats.deficit >= 1.0 and len(taken) < limit:
                taken.append(queue.popleft())
                self._depth -= 1
                stats.deficit -= 1.0
                stats.granted += 1
                contributed[tenant] = contributed.get(tenant, 0) + 1
            if not queue:
                # An emptied queue forfeits leftover credit: deficit only
                # accumulates against a backlog, never while idle.
                stats.deficit = 0.0
                del self._queues[tenant]
            elif stats.deficit >= 1.0 and len(taken) >= limit:
                # Round full mid-entitlement: the tenant keeps its earned
                # deficit and its place at the head of the rotation, so the
                # next round resumes exactly where this one was cut.
                break
            else:
                # Out of credit: rotate to the tail — even when the round is
                # also full.  Leaving a spent tenant at the head would hand
                # it a fresh visit (and quantum) at the top of the next
                # round, a double-visit bias favouring heavy tenants.
                self._queues.move_to_end(tenant)
                if len(taken) >= limit:
                    break
        if taken:
            self._rounds += 1
            for tenant in contributed:
                self._stats[tenant].granted_rounds += 1
        return taken

    def drain(self) -> List[T]:
        """Remove and return every queued request (shutdown path).

        Tenant-major, FIFO within each tenant; deficits reset to zero.
        """
        drained: List[T] = []
        for tenant, queue in self._queues.items():
            drained.extend(queue)
            self._stats[tenant].deficit = 0.0
        self._queues.clear()
        self._depth = 0
        return drained

    def tenant_snapshot(self, tenant: str) -> dict:
        """One tenant's admission counters (zeros for unknown tenants)."""
        stats = self._stats.get(tenant) or TenantQueueStats()
        return stats.snapshot(self.queue_depth(tenant), self._rounds)

    def snapshot(self) -> dict:
        """JSON-able admission view: rotation facts plus per-tenant counters."""
        return {
            "quantum": self.quantum,
            "rounds": self._rounds,
            "queue_depth": self._depth,
            "tenants": {
                tenant: self._stats[tenant].snapshot(self.queue_depth(tenant), self._rounds)
                for tenant in sorted(self._stats)
            },
        }


class TokenBucket:
    """Token-bucket rate limiter for one tenant's ``requests_per_sec`` quota.

    The bucket holds up to ``burst`` tokens and refills continuously at
    ``rate_per_s``; admitting a request costs one token.  An empty bucket
    means the tenant exceeded its offered-rate quota — the caller converts
    that into an HTTP 429 with ``Retry-After`` taken from
    :meth:`retry_after_s`.

    All methods take ``now`` explicitly (seconds on any monotonic clock);
    the bucket never reads a wall clock, so quota decisions replay
    deterministically under a logical clock in tests.

    Parameters
    ----------
    rate_per_s:
        Sustained refill rate (tokens per second); must be positive.
    burst:
        Bucket capacity — the largest instantaneous burst admitted from a
        full bucket.  Defaults to ``max(rate_per_s, 1.0)`` (roughly one
        second of quota, but never less than a single request).
    """

    def __init__(self, rate_per_s: float, burst: Optional[float] = None) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst) if burst is not None else max(self.rate_per_s, 1.0)
        if self.burst < 1.0:
            raise ValueError("burst must admit at least one request")
        self._tokens = self.burst
        self._last_refill: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self._last_refill is not None:
            elapsed = max(now - self._last_refill, 0.0)
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate_per_s)
        self._last_refill = now

    def tokens(self, now: float) -> float:
        """Tokens available at ``now`` (refills as a side effect)."""
        self._refill(now)
        return self._tokens

    def try_acquire(self, now: float, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if available at ``now``; False leaves the bucket unchanged."""
        if tokens <= 0:
            raise ValueError("tokens must be positive")
        self._refill(now)
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def retry_after_s(self, now: float, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available at the sustained rate.

        Zero when the bucket can already afford them; callers round this up
        into the 429 envelope's ``retry_after_ms``.
        """
        self._refill(now)
        missing = tokens - self._tokens
        if missing <= 0:
            return 0.0
        return missing / self.rate_per_s

    def snapshot(self, now: float) -> "Tuple[float, float]":
        """``(available_tokens, burst)`` at ``now`` — the quota headroom view."""
        return self.tokens(now), self.burst

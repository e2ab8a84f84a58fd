"""Tenant-churn soak for the multi-tenant :class:`~repro.serving.ModelRegistry`.

Drives a load/evict storm — many more tenants than the registry's LRU cache
holds — and measures what the registry must keep true under churn:

* **bounded memory**: the process's shmem pages (``memory_profile()``, where
  every column store's mapping lands) never rise above their pre-run value
  by more than the cache capacity times the largest store, rounded up to
  whole pages, no matter how many tenants rotate through; the registry's own
  ``resident_bytes`` accounting must stay within the same bound;
* **release on close**: once the registry closes, the shmem pages are back
  at their pre-run value — no evicted, swapped or resident store outlives it;
* **tail latency and cold-load cost**: request latency percentiles over the
  churn run, with the cold-reload rounds reported separately so the
  eviction policy's cost stays visible.

A companion helper pins the acceptance contract of the v1 API redesign:
single-tenant traffic served through the registry — via the legacy alias
routes *and* the ``/v1`` tenant routes — carries exactly the PR 6
fixed-budget classification trace hash.
"""

from __future__ import annotations

import asyncio
import gc
import json
import mmap
import os
import sys
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.evaluation import classification_trace_hash, latency_percentiles  # noqa: E402
from repro.persist import load_forest  # noqa: E402
from repro.serving import (  # noqa: E402
    AsyncServingClient,
    HttpFrontend,
    ModelRegistry,
    TenantPolicy,
    memory_profile,
)


def run_tenant_churn_soak(
    snapshot_paths: "Sequence[str | Path]",
    queries: np.ndarray,
    n_tenants: int = 32,
    capacity: int = 4,
    rounds: int = 96,
    batch: int = 32,
    node_budget: Optional[int] = 8,
    random_state: int = 0,
) -> Dict[str, object]:
    """Load/evict storm: ``n_tenants`` rotating through a ``capacity``-entry cache.

    Tenants are registered lazily over the given snapshots (cycled), then a
    seeded random schedule fires ``rounds`` batches at them — every request
    to a non-resident tenant forces a cold reload and an LRU eviction.  The
    returned report carries the bounded-memory and release verdicts plus
    latency/cold-load statistics; callers (CI gate, soak test) assert on the
    verdicts rather than re-deriving them.  The shmem reading is taken after
    every round, once the round's evictions have released their stores; a
    registry that keeps a released store alive shows up in it, whatever its
    own accounting says.  Without ``/proc`` every shmem reading is 0 and
    only the accounting bound is checked.
    """
    if n_tenants <= capacity:
        raise ValueError("churn needs more tenants than cache capacity")
    rng = np.random.default_rng(random_state)
    tenants = [f"tenant-{index:02d}" for index in range(n_tenants)]
    round_ms: List[float] = []
    cold_round_ms: List[float] = []
    peak_resident = 0
    max_store = 0
    shmem_kb_samples: List[float] = []

    gc.collect()  # stores of earlier, unreachable registries must not leave mid-run
    shmem_kb_before = memory_profile()["shmem_kb"]
    with ModelRegistry(capacity=capacity) as registry:
        for index, tenant in enumerate(tenants):
            registry.register(tenant, snapshot_paths[index % len(snapshot_paths)])
        for _ in range(rounds):
            tenant = tenants[int(rng.integers(n_tenants))]
            offset = int(rng.integers(max(1, queries.shape[0] - batch)))
            block = queries[offset : offset + batch]
            was_resident = tenant in registry.resident_tenants()
            tick = time.perf_counter()
            predictions = registry.predict_batch(tenant, block, node_budget=node_budget)
            elapsed_ms = (time.perf_counter() - tick) * 1000.0
            assert len(predictions) == block.shape[0]
            round_ms.append(elapsed_ms)
            if not was_resident:
                cold_round_ms.append(elapsed_ms)
            shmem_kb_samples.append(memory_profile()["shmem_kb"])
            stats = registry.stats_snapshot()
            peak_resident = max(peak_resident, int(stats["resident_bytes"]))
            for tenant_stats in stats["tenants"].values():
                if tenant_stats.get("resident"):
                    max_store = max(max_store, int(tenant_stats["shm_bytes"]))
        final_stats = registry.stats_snapshot()
        cold_loads = [
            float(entry["cold_load_ms"])
            for entry in final_stats["tenants"].values()
            if entry.get("cold_load_ms")
        ]
    shmem_kb_after = memory_profile()["shmem_kb"]
    bound_bytes = capacity * max_store
    pages = -(-max_store // mmap.PAGESIZE)
    shmem_bound_kb = capacity * pages * mmap.PAGESIZE / 1024.0
    shmem_kb_peak = max(shmem_kb_samples) if shmem_kb_samples else shmem_kb_before
    bounded = peak_resident <= bound_bytes and shmem_kb_peak - shmem_kb_before <= shmem_bound_kb
    released = shmem_kb_after <= shmem_kb_before

    percentiles = latency_percentiles(
        [ms / 1000.0 for ms in round_ms], percentiles=(50.0, 99.0)
    )
    cold_percentiles = (
        latency_percentiles([ms / 1000.0 for ms in cold_round_ms], percentiles=(50.0, 99.0))
        if cold_round_ms
        else {"p50": 0.0, "p99": 0.0}
    )
    return {
        "n_tenants": n_tenants,
        "capacity": capacity,
        "rounds": rounds,
        "batch": batch,
        "max_store_bytes": max_store,
        "peak_resident_bytes": peak_resident,
        "bound_bytes": bound_bytes,
        "shmem_kb_before": shmem_kb_before,
        "shmem_kb_peak": shmem_kb_peak,
        "shmem_kb_after": shmem_kb_after,
        "shmem_bound_kb": shmem_bound_kb,
        "bounded": bool(bounded),
        "released": bool(released),
        "evictions": final_stats["counters"]["evictions"],
        "reloads": final_stats["counters"]["reloads"],
        "loads": final_stats["counters"]["loads"],
        "p50_ms": percentiles["p50"],
        "p99_ms": percentiles["p99"],
        "cold_rounds": len(cold_round_ms),
        "cold_p50_ms": cold_percentiles["p50"],
        "cold_p99_ms": cold_percentiles["p99"],
        "cold_load_ms_mean": float(np.mean(cold_loads)) if cold_loads else 0.0,
        "cold_load_ms_max": float(np.max(cold_loads)) if cold_loads else 0.0,
    }


def run_registry_trace_identity(
    snapshot_path: "str | Path",
    queries: np.ndarray,
    node_budget: int = 8,
    policy: Optional[TenantPolicy] = None,
) -> Dict[str, object]:
    """Pin single-tenant trace identity through both HTTP route families.

    Serves the same fixed-budget batch through a registry-only deployment via
    the legacy ``/classify_batch`` alias and ``/v1/tenants/default/classify_batch``,
    requires the two response payloads to be byte-identical, and compares the
    served predictions against the in-process lockstep driver whose full
    refinement trace feeds :func:`classification_trace_hash` — the same hash
    the single-tenant front-end pinned before the registry existed.  An
    optional tenant ``policy`` configures the admission layer (weight, queue
    depth, quota), so the fairness battery can require that the DRR scheduler
    leaves this byte-level contract untouched.
    """

    async def served_payloads() -> Tuple[bytes, bytes]:
        registry = ModelRegistry(capacity=2)
        try:
            registry.load("default", snapshot_path, policy=policy)
            async with AsyncServingClient(registry=registry, linger_s=0.001) as client:
                async with HttpFrontend(client) as http:
                    host, port = http.address
                    body = {"features": queries.tolist(), "node_budget": node_budget}
                    legacy = await _post_raw(host, port, "/classify_batch", body)
                    versioned = await _post_raw(
                        host, port, "/v1/tenants/default/classify_batch", body
                    )
                    return legacy, versioned
        finally:
            registry.close()

    legacy, versioned = asyncio.run(served_payloads())
    traced = load_forest(snapshot_path).classify_anytime_batch(queries, max_nodes=node_budget)
    expected = [result.final_prediction for result in traced]
    served = json.loads(legacy)["predictions"]
    identical = legacy == versioned and served == expected
    return {
        "identical": bool(identical),
        "routes_byte_identical": bool(legacy == versioned),
        "trace_hash": classification_trace_hash(traced),
        "node_budget": int(node_budget),
        "queries": int(queries.shape[0]),
    }


async def _post_raw(host: str, port: int, path: str, payload: Dict[str, object]) -> bytes:
    """POST ``payload`` as JSON, return the raw response body bytes."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        if int(status_line.split()[1]) != 200:
            raise RuntimeError(f"unexpected status: {status_line!r}")
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return await reader.readexactly(length)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - teardown race
            pass

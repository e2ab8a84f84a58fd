"""The four workloads of the end-to-end benchmark and how one run spends its time.

Every rate, size, latency limit, search range and per-workload regression
bound lives here, so a run is fully determined by ``(workload, seed)``.
``BENCHMARK.json`` at the repository root names the workloads, fixes each
gated metric's unit and direction, and holds, per metric, the largest of
the per-workload bounds below (it has room for one bound per metric); the
README explains why each workload exists and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

#: Connections the load generator keeps open (the host has two cores).
CONNECTIONS = 2

#: A serving run is its serving SUT's spawn followed by ``SLOTS`` slots.
#: Each slot runs one part of the nominal phase and, with a rate search,
#: one probe; every slot but the first also spawns and stops one more SUT.
#: Spreading these samples over the run keeps a few-second slow spell of
#: the shared host from reaching their median.
SLOTS = 5

#: SUT spawns per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = SLOTS

#: Bisection probes of the sustainable-rate search.
PROBES = 6

#: Seconds of unmeasured load before each nominal slot and each probe; a
#: fresh SUT gets the longer warm-up before its first slot.
SUT_WARMUP_S = 1.0
SLOT_WARMUP_S = 0.3
PROBE_WARMUP_S = 0.2


@dataclass(frozen=True)
class ServeWorkload:
    """An HTTP serving workload: one SUT, Poisson arrivals, one route.

    ``rate_rps`` and ``search_rps`` count requests; ``sustainable_qps``
    multiplies by ``rows``.
    """

    name: str
    backend: str  # "engine": ServingEngine(snapshot); "registry": ModelRegistry
    route: str  # "classify" (one row) or "classify_batch"
    rows: int
    node_budget: Optional[int]  # None = full refinement
    rate_rps: float
    limit_ms: float
    #: Bisection range of the sustainable-rate search; ``None``: no search.
    search_rps: Optional[Tuple[float, float]]
    train_size: int
    pool_size: int  # held-out rows per snapshot that requests draw from
    tenants: int = 1
    registry_capacity: int = 0
    zipf_s: float = 0.0
    swaps: bool = False  # one swap of t0 halfway through every nominal slot


@dataclass(frozen=True)
class StreamWorkload:
    """The test-then-train stream job, run as a batch in its own process."""

    name: str
    warm_fit: int
    objects: int  # stream length after the warm-up fit
    n_classes: int
    n_features: int
    chunk_size: int
    nodes_per_time_unit: float
    max_budget: int
    decay_rate: float
    expiry_threshold: float
    limit_ms: float  # latency limit of one chunk's test-then-train step
    publishes: int  # compile_flat + save_forest of the final forest, per pass


Workload = Union[ServeWorkload, StreamWorkload]

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        ServeWorkload(
            name="serve_fixed",
            backend="engine",
            route="classify_batch",
            rows=2,
            node_budget=8,
            # 208 queries/s: 30-60% of capacity as the host's speed varies;
            # 1040 measured requests.
            rate_rps=104.0,
            limit_ms=100.0,
            search_rps=(40.0, 440.0),
            train_size=1600,
            pool_size=400,
        ),
        ServeWorkload(
            name="serve_small",
            backend="engine",
            route="classify",
            rows=1,
            node_budget=None,
            # Capacity fell to 110-190 req/s in the host's slow spells.
            rate_rps=150.0,
            # At 25 ms the limit sat at 1.2-1.5x the probes' tail near
            # capacity, so host hiccups, not capacity, decided the verdicts.
            limit_ms=50.0,
            search_rps=(60.0, 600.0),
            train_size=1600,
            pool_size=400,
        ),
        ServeWorkload(
            name="serve_tenants",
            backend="registry",
            route="classify_batch",
            rows=2,
            node_budget=8,
            rate_rps=60.0,
            # A swap stalls every tenant's rounds for ~0.5 s; at 100 ms the
            # requests it holds up miss the limit, so completion sees it.
            limit_ms=100.0,
            search_rps=None,
            train_size=800,
            pool_size=64,
            tenants=8,
            # Every tenant stays resident: at the cold-load rate the issue
            # asked for (~1/s) the in-process registry saturates (README).
            registry_capacity=8,
            zipf_s=2.0,
            swaps=True,
        ),
        StreamWorkload(
            name="learn_stream",
            warm_fit=64,
            # 50 chunks.  A kernel expires ``log2(1 / threshold) / decay_rate``
            # time units after its arrival (2500 here); the sweep that first
            # drops kernels, and rebuilds the index, falls at t ~ 2500, which
            # the stream's clock (t ~ 3200 +- 57) passes for every seed.
            objects=3200,
            n_classes=10,
            n_features=16,
            chunk_size=64,
            nodes_per_time_unit=10.0,
            max_budget=64,
            decay_rate=0.002,
            expiry_threshold=2.0 ** -5,
            # A chunk of 64 within 500 ms keeps up with 128 arrivals per second.
            limit_ms=500.0,
            publishes=5,
        ),
    )
}

#: Regression bound of every gated end-to-end metric on every workload: the
#: share of the parent's median by which it may get worse.  Each is
#: max(0.05, 3 x the largest spread of the two ten-seed sweeps in
#: ``results/``), rounded up; ``setup_s`` gets 0.25, the largest bound the
#: benchmark harness accepts.
BOUNDS: Dict[str, Dict[str, float]] = {
    "serve_fixed": {"setup_s": 0.25, "completion": 0.05, "prequential_accuracy": 0.05, "mem_mb": 0.05},
    "serve_small": {"setup_s": 0.25, "completion": 0.22, "prequential_accuracy": 0.05, "mem_mb": 0.05},
    "serve_tenants": {"setup_s": 0.25, "completion": 0.24, "prequential_accuracy": 0.05, "mem_mb": 0.05},
    "learn_stream": {"setup_s": 0.25, "completion": 0.05, "prequential_accuracy": 0.06, "mem_mb": 0.05},
}

#: Timing metrics every run reports but ``BENCHMARK.json`` does not gate:
#: on this shared host their spread over ten seeds reached 0.1-5.6, so a
#: bound would reject unchanged code (README).  ``compare.py`` judges them
#: by paired runs.  Each maps to ``(unit, better, workloads reporting it)``.
REPORTED: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "p50_ms": ("ms", "lower", ("serve_fixed", "serve_small", "serve_tenants")),
    "p99_ms": ("ms", "lower", ("serve_fixed", "serve_small", "serve_tenants")),
    "sustainable_qps": ("queries/s", "higher", ("serve_fixed", "serve_small")),
    "objects_per_s": ("objects/s", "higher", ("learn_stream",)),
    "publish_ms": ("ms", "lower", ("learn_stream",)),
}


@dataclass(frozen=True)
class PhasePlan:
    """Measured seconds of one nominal slot and of one probe."""

    slot_s: float
    probe_s: float


def phase_plan(seconds: float, workload: ServeWorkload) -> PhasePlan:
    """Split ``seconds`` of load: with a rate search, half goes to the nominal
    slots and 40% to the probes; without, 85% goes to the slots.  Warm-ups
    come on top."""
    if workload.search_rps is None:
        return PhasePlan(slot_s=0.85 * seconds / SLOTS, probe_s=0.0)
    return PhasePlan(slot_s=0.5 * seconds / SLOTS, probe_s=0.4 * seconds / PROBES)

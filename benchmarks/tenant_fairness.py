"""Two-tenant starvation battery for the fairness-aware admission layer.

A *hot* tenant offers 50x the background tenant's load against a shared
:class:`~repro.serving.AsyncServingClient` whose deficit-round-robin
scheduler and per-tenant quotas are the thing under test.  The questions
the battery answers are the ones a broken scheduler fails loudly:

* does the background tenant still complete (no starvation) while the hot
  tenant saturates the service, and
* does its tail latency stay within a small multiple of its *solo*
  baseline — the same stream replayed with the hot tenant absent, on the
  same machine, through the same client configuration?

Both numbers are same-machine ratios in the repo's benchmark convention
(DESIGN.md): the solo run is the yardstick, so a uniformly slower runner
moves both ends and the gate only trips when fairness itself regresses.
The hot tenant's queue is capped (``max_queue_depth``), so its overload
shows up as bounded backlog plus ``queue_full`` rejections instead of an
unbounded grab of the shared pending budget.
"""

from __future__ import annotations

import asyncio
import math
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.data.synthetic import Dataset

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.evaluation import RequestTrace  # noqa: E402
from repro.serving import (  # noqa: E402
    AsyncServingClient,
    ModelRegistry,
    TenantPolicy,
    drive_open_loop,
)
from repro.stream import DataStream, PoissonArrival  # noqa: E402

BACKGROUND = "background"
HOT = "hot"
#: Interleaved solo/contended pairs per run; the p99 ratio is their median.
PAIRS = 5


def _tiled(dataset: "Dataset", n_items: int) -> "Dataset":
    """``dataset`` repeated up to ``n_items`` objects (streams do not cycle)."""
    if len(dataset.features) >= n_items:
        return dataset
    repeats = int(math.ceil(n_items / len(dataset.features)))
    return type(dataset)(
        dataset.name,
        np.tile(dataset.features, (repeats, 1))[:n_items],
        np.tile(dataset.labels, repeats)[:n_items],
        dataset.n_classes,
    )


def _open_registry(
    snapshot_path: "str | Path", background_weight: float, hot_queue_depth: int
) -> ModelRegistry:
    """Both tenants on the same snapshot, with the fairness policies set."""
    registry = ModelRegistry(capacity=2)
    registry.load(BACKGROUND, snapshot_path, policy=TenantPolicy(weight=background_weight))
    registry.load(
        HOT, snapshot_path, policy=TenantPolicy(weight=1.0, max_queue_depth=hot_queue_depth)
    )
    return registry


def run_two_tenant_starvation(
    snapshot_path: "str | Path",
    tail_dataset: "Dataset",
    background_speed: float = 40.0,
    hot_multiplier: float = 50.0,
    background_limit: int = 120,
    node_budget: int = 8,
    max_pending: int = 512,
    max_batch: int = 3,
    background_weight: float = 4.0,
    hot_queue_depth: int = 64,
    deadline_factor: float = 20.0,
    min_deadline_ms: float = 500.0,
    random_state: int = 7,
) -> Dict[str, object]:
    """Interleaved solo and contended runs, then the fairness verdicts.

    Each of :data:`PAIRS` pairs replays ``tail_dataset`` as the background
    tenant at ``background_speed`` arrivals/s through two identically
    configured deployments: once alone (the baseline), then while the hot
    tenant offers ``hot_multiplier`` times that rate for the whole
    background run.  The contended background stream carries a deadline
    derived from the same pair's solo p99 (``deadline_factor`` times it,
    floored at ``min_deadline_ms``) so starvation — requests parked behind
    the hot backlog — degrades the *completion rate* instead of hiding in an
    unbounded latency tail.

    The gate ratio ``p99_ratio`` is the median over pairs of contended p99
    over solo p99.  One run's p99 rests on its few slowest requests, so a
    single ratio swings with the host's scheduling; interleaving cancels a
    slow spell that hits both halves of a pair, and the median outvotes one
    that hits a single run.  Completion, rejection mixes and the ``solo``,
    ``contended`` and ``hot`` summaries pool every pair's records;
    ``admission`` is the client's snapshot after the last contended run.
    """
    if hot_multiplier <= 1.0:
        raise ValueError("hot_multiplier must exceed 1 for a starvation run")

    hot_limit = int(math.ceil(background_limit * hot_multiplier))
    background_data = _tiled(tail_dataset, background_limit)
    hot_data = _tiled(tail_dataset, hot_limit)

    def background_stream() -> DataStream:
        return DataStream(
            background_data, arrival=PoissonArrival(rate=1.0), random_state=random_state
        )

    def hot_stream() -> DataStream:
        return DataStream(
            hot_data, arrival=PoissonArrival(rate=1.0), random_state=random_state + 1
        )

    async def solo() -> List[dict]:
        registry = _open_registry(snapshot_path, background_weight, hot_queue_depth)
        try:
            async with AsyncServingClient(
                registry=registry, max_pending=max_pending, max_batch=max_batch, linger_s=0.001
            ) as client:
                return await drive_open_loop(
                    client,
                    background_stream(),
                    speed=background_speed,
                    limit=background_limit,
                    node_budget=node_budget,
                    tenant=BACKGROUND,
                )
        finally:
            registry.close()

    async def contended(deadline_ms: float) -> Tuple[List[dict], List[dict], Dict[str, object]]:
        registry = _open_registry(snapshot_path, background_weight, hot_queue_depth)
        try:
            async with AsyncServingClient(
                registry=registry, max_pending=max_pending, max_batch=max_batch, linger_s=0.001
            ) as client:
                # The hot stream outlasts the background run: its request
                # count scales with the full offered-load ratio.
                background_records, hot_records = await asyncio.gather(
                    drive_open_loop(
                        client,
                        background_stream(),
                        speed=background_speed,
                        limit=background_limit,
                        node_budget=node_budget,
                        deadline_ms=deadline_ms,
                        tenant=BACKGROUND,
                    ),
                    drive_open_loop(
                        client,
                        hot_stream(),
                        speed=background_speed * hot_multiplier,
                        limit=hot_limit,
                        node_budget=node_budget,
                        tenant=HOT,
                    ),
                )
                admission = client.stats_snapshot()["admission"]
                return background_records, hot_records, admission
        finally:
            registry.close()

    solo_records: List[dict] = []
    background_records: List[dict] = []
    hot_records: List[dict] = []
    solo_p99s: List[float] = []
    contended_p99s: List[float] = []
    deadlines: List[float] = []
    admission: Dict[str, object] = {}
    for _ in range(PAIRS):
        records = asyncio.run(solo())
        solo_records += records
        solo_p99_ms = float(RequestTrace.from_records(records).summary()["latency_ms"]["p99"])
        deadline_ms = max(min_deadline_ms, deadline_factor * solo_p99_ms)
        records, hot, admission = asyncio.run(contended(deadline_ms))
        background_records += records
        hot_records += hot
        # A fully starved background tenant serves nothing: report an
        # infinite tail instead of KeyError-ing so the gate fails on the number.
        latency = RequestTrace.from_records(records).summary().get("latency_ms", {"p99": float("inf")})
        solo_p99s.append(solo_p99_ms)
        contended_p99s.append(float(latency["p99"]))
        deadlines.append(deadline_ms)

    ratios = [
        contended_ms / solo_ms if solo_ms > 0 else float("inf")
        for solo_ms, contended_ms in zip(solo_p99s, contended_p99s)
    ]
    background_trace = RequestTrace.from_records(background_records)
    hot_trace = RequestTrace.from_records(hot_records)
    completion = background_trace.completion_rate()

    return {
        "background_speed": background_speed,
        "hot_multiplier": hot_multiplier,
        "background_limit": background_limit,
        "pairs": PAIRS,
        "deadline_ms": deadlines,
        "solo": RequestTrace.from_records(solo_records).summary(),
        "contended": background_trace.summary(),
        "hot": hot_trace.summary(),
        "background_completion": float(completion if completion is not None else 0.0),
        "background_rejection_mix": background_trace.rejection_mix(),
        "hot_rejection_mix": hot_trace.rejection_mix(),
        "solo_p99_ms": float(np.median(solo_p99s)),
        "contended_p99_ms": float(np.median(contended_p99s)),
        "p99_ratios": ratios,
        "p99_ratio": float(np.median(ratios)),
        "admission": admission,
    }

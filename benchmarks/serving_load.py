"""Serving load generator shared by the throughput benches and collect_bench.

Builds a snapshotted forest once, then replays load against
:class:`repro.serving.ServingEngine` — directly or through the
:mod:`repro.serving.frontend` asyncio layer (closed-loop waves, open-loop
arrival replay with adaptive budgets) — measuring queries/second and
latency percentiles.  Timing follows the repo's benchmark conventions
(DESIGN.md, running the benchmarks): the interesting numbers are *ratios
measured on the same machine* (slow-vs-burst budget depth) or
calibration-normalised throughputs, never raw wall-clock.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.data.synthetic import Dataset

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core import AnytimeBayesClassifier  # noqa: E402
from repro.data import make_dataset  # noqa: E402
from repro.evaluation import RequestTrace, classification_trace_hash, latency_percentiles  # noqa: E402
from repro.evaluation.experiment import DEFAULT_EXPERIMENT_CONFIG  # noqa: E402
from repro.persist import load_flat_forest, load_forest, save_forest  # noqa: E402
from repro.serving import (  # noqa: E402
    ADAPTIVE,
    AdaptiveBudgetPolicy,
    AsyncServingClient,
    ServingEngine,
    drive_open_loop,
)
from repro.stream import DataStream, PoissonArrival  # noqa: E402


def build_serving_snapshot(
    path: "str | Path",
    train_size: int = 1600,
    query_size: int = 256,
    random_state: int = 0,
) -> np.ndarray:
    """Train a forest, snapshot it to ``path``, return the query block.

    The queries are test objects tiled to ``query_size`` rows — one serving
    micro-batch worth of traffic with realistic feature values.
    """
    dataset = make_dataset("pendigits", size=train_size + 200, random_state=random_state)
    classifier = AnytimeBayesClassifier(config=DEFAULT_EXPERIMENT_CONFIG)
    classifier.fit(dataset.features[:train_size], dataset.labels[:train_size])
    save_forest(classifier, path)
    tail = dataset.features[train_size:]
    repeats = int(np.ceil(query_size / tail.shape[0]))
    queries = np.tile(tail, (repeats, 1))[:query_size]
    return queries


def build_labelled_tail(
    train_size: int = 1600, tail_size: int = 200, random_state: int = 0
) -> "Dataset":
    """The labelled holdout tail matching :func:`build_serving_snapshot`.

    Returns a :class:`~repro.data.synthetic.Dataset` view of the last
    ``tail_size`` objects — the raw material for an open-loop arrival stream
    whose served predictions can be scored against true labels.
    """
    dataset = make_dataset("pendigits", size=train_size + tail_size, random_state=random_state)
    return dataset.tail(train_size)


def run_serving_load(
    snapshot_path: "str | Path",
    queries: np.ndarray,
    batches: int = 8,
    warmup: int = 2,
    node_budget: Optional[int] = None,
) -> Dict[str, float]:
    """Measure the engine under a fixed replayed load.

    Returns queries/second over the measured batches plus per-batch latency
    percentiles (milliseconds).  Warm-up rounds run first so snapshot
    loading never pollutes the measurement — the engine loads its snapshot
    at construction, warm-up only stabilises caches.
    """
    with ServingEngine(snapshot_path) as engine:
        for _ in range(warmup):
            engine.predict_batch(queries, node_budget=node_budget)
        samples: List[float] = []
        start = time.perf_counter()
        for _ in range(batches):
            tick = time.perf_counter()
            engine.predict_batch(queries, node_budget=node_budget)
            samples.append(time.perf_counter() - tick)
        total = time.perf_counter() - start
        percentiles = latency_percentiles(samples, percentiles=(50.0, 99.0))
        return {
            "qps": batches * queries.shape[0] / total,
            "p50_ms": percentiles["p50"],
            "p99_ms": percentiles["p99"],
            "mean_ms": percentiles["mean"],
        }


def run_frontend_closed_loop(
    snapshot_path: "str | Path",
    queries: np.ndarray,
    batches: int = 6,
    warmup: int = 2,
    node_budget: Optional[int] = None,
) -> Dict[str, float]:
    """Closed-loop async front-end load: waves of ``classify_batch`` calls.

    Each wave submits every query through the event-loop micro-batcher and
    waits for all results before the next wave starts (closed loop — the
    generator never outruns the server).  Returns queries/second plus
    per-wave latency percentiles, directly comparable to
    :func:`run_serving_load`'s direct-engine numbers: the difference is the
    front-end's coalescing/dispatch overhead.
    """

    async def main() -> Dict[str, float]:
        with ServingEngine(snapshot_path) as engine:
            async with AsyncServingClient(
                engine, max_pending=4 * queries.shape[0], linger_s=0.001
            ) as client:
                for _ in range(warmup):
                    await client.classify_batch(queries, node_budget=node_budget)
                samples: List[float] = []
                start = time.perf_counter()
                for _ in range(batches):
                    tick = time.perf_counter()
                    await client.classify_batch(queries, node_budget=node_budget)
                    samples.append(time.perf_counter() - tick)
                total = time.perf_counter() - start
        percentiles = latency_percentiles(samples, percentiles=(50.0, 99.0))
        return {
            "qps": batches * queries.shape[0] / total,
            "p50_ms": percentiles["p50"],
            "p99_ms": percentiles["p99"],
            "mean_ms": percentiles["mean"],
        }

    return asyncio.run(main())


def run_frontend_open_loop(
    snapshot_path: "str | Path",
    tail_dataset: "Dataset",
    speed: float,
    limit: int = 160,
    policy: Optional[AdaptiveBudgetPolicy] = None,
    deadline_ms: Optional[float] = None,
    random_state: int = 5,
) -> Dict[str, object]:
    """Open-loop adaptive-budget load at a given arrival speed.

    Replays ``tail_dataset`` as a Poisson stream at ``speed`` arrivals per
    abstract-rate unit per second and classifies every item with
    ``node_budget=ADAPTIVE``; requests fire at their arrival times whether
    or not earlier ones finished.  Returns the :class:`RequestTrace` summary
    plus the mean granted budget — the number that realises the paper's
    anytime curve as a serving policy (large at low rates, small in bursts).
    """

    async def main() -> Dict[str, object]:
        with ServingEngine(snapshot_path) as engine:
            client = AsyncServingClient(
                engine,
                linger_s=0.001,
                max_pending=max(64, limit),
                budget_policy=policy or AdaptiveBudgetPolicy(),
            )
            async with client:
                stream = DataStream(
                    tail_dataset, arrival=PoissonArrival(rate=1.0), random_state=random_state
                )
                records = await drive_open_loop(
                    client,
                    stream,
                    speed=speed,
                    limit=limit,
                    node_budget=ADAPTIVE,
                    deadline_ms=deadline_ms,
                )
        trace = RequestTrace.from_records(records)
        summary = trace.summary()
        summary["speed"] = speed
        return summary

    return asyncio.run(main())


def run_frontend_trace_identity(
    snapshot_path: "str | Path", queries: np.ndarray, node_budget: int = 8
) -> Dict[str, object]:
    """Pin the fixed-budget trace identity of the async front-end.

    Serves ``queries`` at a fixed per-query budget three ways — through the
    async front-end, via ``ServingEngine.predict_batch`` directly, and with
    the in-process lockstep driver whose full refinement trace feeds
    ``classification_trace_hash`` — and reports whether all three agree plus
    the trace hash itself (the engine's budgeted path *is* the lockstep
    driver, so agreement means the front-end's predictions carry exactly the
    hashed trace).
    """

    async def frontend_predictions() -> "Tuple[List[object], List[object]]":
        with ServingEngine(snapshot_path) as engine:
            async with AsyncServingClient(engine, linger_s=0.001) as client:
                via_frontend = await client.classify_batch(queries, node_budget=node_budget)
                direct = engine.predict_batch(queries, node_budget=node_budget)
                return via_frontend, direct

    via_frontend, direct = asyncio.run(frontend_predictions())
    forest = load_forest(snapshot_path)
    traced = forest.classify_anytime_batch(queries, max_nodes=node_budget)
    trace_hash = classification_trace_hash(traced)
    identical = (
        via_frontend == direct and via_frontend == [result.final_prediction for result in traced]
    )
    return {
        "identical": bool(identical),
        "trace_hash": trace_hash,
        "node_budget": node_budget,
        "queries": int(queries.shape[0]),
    }


def run_flat_descent_comparison(
    snapshot_path: "str | Path", queries: np.ndarray, max_nodes: int = 20
) -> Dict[str, object]:
    """The snapshot's flat columns against twins compiled from its object graph.

    Loads the forest both ways — ``load_forest`` (the object graph; its
    anytime reads run over flat twins compiled from the restored trees) and
    ``load_flat_forest`` (the pre/post-order columns stored in the snapshot)
    — and pins that their anytime lockstep traces are hash-identical, which
    fails when save, restore or the flat loader diverge.  Both sides read
    through the same flat driver, so there is no speed to compare.
    """
    object_hash = classification_trace_hash(
        load_forest(snapshot_path).classify_anytime_batch(queries, max_nodes=max_nodes)
    )
    flat_hash = classification_trace_hash(
        load_flat_forest(snapshot_path).classify_anytime_batch(queries, max_nodes=max_nodes)
    )
    return {
        "identical": bool(object_hash == flat_hash),
        "trace_hash": flat_hash,
        "max_nodes": int(max_nodes),
        "queries": int(queries.shape[0]),
    }

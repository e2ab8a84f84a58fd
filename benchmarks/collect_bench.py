#!/usr/bin/env python
"""Collect the repo's benchmark metrics into a machine-readable JSON file.

Run from the repository root::

    PYTHONPATH=src python benchmarks/collect_bench.py --output BENCH_pr5.json

The file feeds the CI benchmark-regression gate (``check_regression.py``),
which compares it against the committed ``benchmarks/baseline.json``.

Metric design: shared CI runners vary wildly in absolute speed, so every
timing metric is either a *ratio of two timings on the same machine*
(``batch_speedup_vs_scalar``) or *normalised by a calibration workload*
(a fixed numpy-heavy loop timed in the same process).  Accuracy metrics are
fully deterministic (seeded generators, seeded streams).
"""

from __future__ import annotations

from typing import Optional, Sequence

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core import AnytimeBayesClassifier  # noqa: E402
from repro.data import make_dataset  # noqa: E402
from repro.evaluation import run_drift_recovery_experiment, run_scenario_battery  # noqa: E402
from repro.evaluation.experiment import DEFAULT_EXPERIMENT_CONFIG  # noqa: E402
from repro.scenarios import SMOKE_SCENARIOS  # noqa: E402
from repro.stream import DataStream, run_anytime_stream  # noqa: E402

from serving_load import (  # noqa: E402
    build_labelled_tail,
    build_serving_snapshot,
    run_flat_descent_comparison,
    run_frontend_closed_loop,
    run_frontend_open_loop,
    run_frontend_trace_identity,
    run_serving_load,
)
from tenant_churn import run_registry_trace_identity, run_tenant_churn_soak  # noqa: E402
from tenant_fairness import run_two_tenant_starvation  # noqa: E402

SCHEMA = 1


def _calibration_seconds() -> float:
    """Time a fixed numpy workload — the machine-speed yardstick.

    All wall-clock metrics are divided by this, so a uniformly 2x-slower CI
    runner reports (to first order) the same normalised numbers.
    """
    def once() -> float:
        rng = np.random.default_rng(0)
        a = rng.normal(size=(400, 400))
        small = rng.normal(size=(64, 8))
        start = time.perf_counter()
        for _ in range(8):
            b = a @ a
            b = np.exp(b / (1.0 + np.abs(b)))
            a = b / np.linalg.norm(b)
            # Small-array churn: the tree hot paths are dominated by many
            # tiny numpy calls, not by large BLAS kernels.
            for _ in range(200):
                (small * small).sum(axis=0)
        return time.perf_counter() - start

    # Min of three: the least contention-sensitive statistic on shared runners.
    return min(once() for _ in range(3))


def _classification_metrics() -> dict:
    """Full-refinement batch classification throughput and speedup."""
    dataset = make_dataset("pendigits", size=600, random_state=0)
    classifier = AnytimeBayesClassifier(config=DEFAULT_EXPERIMENT_CONFIG)
    classifier.fit(dataset.features[:500], dataset.labels[:500])
    queries = dataset.features[500:]

    start = time.perf_counter()
    scalar = [classifier.predict(query) for query in queries]
    scalar_seconds = time.perf_counter() - start

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batch = classifier.predict_batch(queries)
        best = min(best, time.perf_counter() - start)
    assert batch == scalar, "batch and scalar predictions diverged"
    return {
        "batch_seconds": best,
        "throughput_qps": len(queries) / best,
        "speedup": scalar_seconds / best,
    }


def _stream_metrics() -> dict:
    """Wall-clock of the micro-batched test-then-train stream driver (min of 2)."""
    dataset = make_dataset("pendigits", size=1500, random_state=1)
    tail = type(dataset)(
        dataset.name, dataset.features[64:], dataset.labels[64:], dataset.n_classes
    )

    def once() -> tuple:
        classifier = AnytimeBayesClassifier(config=DEFAULT_EXPERIMENT_CONFIG)
        classifier.fit(dataset.features[:64], dataset.labels[:64])
        stream = DataStream(tail, random_state=2)
        start = time.perf_counter()
        result = run_anytime_stream(classifier, stream, online_learning=True, chunk_size=64)
        return time.perf_counter() - start, result

    seconds, result = min((once() for _ in range(2)), key=lambda pair: pair[0])
    return {"seconds": seconds, "accuracy": result.accuracy, "objects": len(result.steps)}


def _serving_metrics() -> dict:
    """Engine serving throughput on tiled 512-query full-refinement blocks.

    The engine serves every round in one process; the ``_1w`` keys keep
    the gate's historical name (it was measured on one shard worker).
    """
    with tempfile.TemporaryDirectory() as tmpdir:
        snapshot = Path(tmpdir) / "forest.npz"
        queries = build_serving_snapshot(
            snapshot, train_size=2400, query_size=512, random_state=0
        )
        one = run_serving_load(snapshot, queries=queries, batches=8, warmup=2)
    return {"qps_1w": one["qps"], "p99_ms_1w": one["p99_ms"]}


def _frontend_metrics() -> dict:
    """Async front-end: trace identity, closed-loop throughput, adaptive depth.

    Runs on the one-process engine, so every number is meaningful on
    single-core runners.  The adaptive ratio divides the mean node budget
    granted under light open-loop load (40 req/s) by the mean under burst
    load (4000 req/s) on the *same machine* — the paper's anytime tradeoff as
    a serving policy; a broken estimator or policy collapses it towards 1.
    """
    with tempfile.TemporaryDirectory() as tmpdir:
        snapshot = Path(tmpdir) / "forest.npz"
        queries = build_serving_snapshot(
            snapshot, train_size=1600, query_size=256, random_state=0
        )
        tail = build_labelled_tail(train_size=1600, tail_size=200, random_state=0)
        identity = run_frontend_trace_identity(snapshot, queries[:96], node_budget=8)
        closed = run_frontend_closed_loop(snapshot, queries, batches=6, warmup=1)
        slow = run_frontend_open_loop(snapshot, tail, speed=40.0, limit=120)
        burst = run_frontend_open_loop(snapshot, tail, speed=4000.0, limit=120)
    return {
        "trace_identical": identity["identical"],
        "trace_hash": identity["trace_hash"],
        "qps": closed["qps"],
        "p99_ms": closed["p99_ms"],
        "mean_budget_slow": slow["mean_node_budget"],
        "mean_budget_burst": burst["mean_node_budget"],
        "accuracy_slow": slow["accuracy"],
        "accuracy_burst": burst["accuracy"],
        "latency_p99_slow_ms": slow["latency_ms"]["p99"],
        "latency_p99_burst_ms": burst["latency_ms"]["p99"],
    }


def _flat_metrics() -> dict:
    """Flat-forest encoding: the snapshot's columns against the restored forest.

    Deterministic and in-process: the trace hash of the snapshot's flat
    columns must equal that of the twins compiled from the restored object
    graph.
    """
    with tempfile.TemporaryDirectory() as tmpdir:
        snapshot = Path(tmpdir) / "forest.npz"
        queries = build_serving_snapshot(
            snapshot, train_size=1600, query_size=256, random_state=0
        )
        descent = run_flat_descent_comparison(snapshot, queries[:128], max_nodes=20)
    return {"descent": descent}


def _tenant_metrics() -> dict:
    """Multi-tenant registry: churn-bounded memory, cold loads, trace identity.

    The churn soak rotates 32 tenants through a 4-entry LRU registry — every
    round to a non-resident tenant is a cold reload plus an eviction — and
    reports whether the process's shmem pages stayed within the capacity
    bound above their pre-run value after every round and returned to it
    once the registry closed (both deterministic verdicts).  The
    identity run then serves the trace-pinned fixed-budget batch through a
    registry-only deployment over *both* HTTP route families (legacy alias
    and ``/v1``), requiring byte-identical payloads and the unchanged
    single-tenant classification trace hash.
    """
    with tempfile.TemporaryDirectory() as tmpdir:
        snapshots = []
        for index in range(4):
            snapshot = Path(tmpdir) / f"tenant-{index}.npz"
            build_serving_snapshot(
                snapshot, train_size=600, query_size=64, random_state=index
            )
            snapshots.append(snapshot)
        main_snapshot = Path(tmpdir) / "forest.npz"
        queries = build_serving_snapshot(
            main_snapshot, train_size=1600, query_size=256, random_state=0
        )
        churn = run_tenant_churn_soak(
            snapshots, queries, n_tenants=32, capacity=4, rounds=96, batch=32
        )
        identity = run_registry_trace_identity(main_snapshot, queries[:96], node_budget=8)
    return {"churn": churn, "identity": identity}


def _fairness_metrics() -> dict:
    """Two-tenant starvation: DRR fairness under a 50x hot-tenant storm.

    The background tenant replays the same stream through identically
    configured deployments — alone, then while the hot tenant offers 50x its
    load, in five interleaved pairs — so both gate numbers are same-machine
    ratios: the served fraction of background requests under contention
    (1.0 unless the scheduler starves it into deadline misses) and the
    median over pairs of the background p99 over its solo p99 (a broken
    scheduler parks background requests behind the hot backlog and blows
    this up by an order of magnitude, not percent).
    """
    with tempfile.TemporaryDirectory() as tmpdir:
        snapshot = Path(tmpdir) / "forest.npz"
        build_serving_snapshot(snapshot, train_size=800, query_size=128, random_state=0)
        tail = build_labelled_tail(train_size=800, tail_size=160, random_state=0)
        return run_two_tenant_starvation(snapshot, tail)


def _scenario_metrics() -> dict:
    """Scenario-battery smoke headline numbers (fully deterministic).

    Runs the smoke scenario subset at reduced stream scale — the same run
    the CI docs job renders into the published report — and extracts the
    forest win rate over every ``(scenario, budget)`` cell plus two
    per-scenario anchors: the forest's budget-averaged holdout accuracy on
    the high-dimensional kernels scenario and its prequential accuracy under
    collapsing budgets on the adversarial-burst scenario.  Seeded specs plus
    deterministic classifiers make all three exactly reproducible.
    """
    battery = run_scenario_battery(SMOKE_SCENARIOS, size_scale=0.25)
    highdim = battery.outcome("highdim_kernels")
    bursts = battery.outcome("adversarial_bursts")
    return {
        "forest_win_rate": battery.forest_win_rate,
        "highdim_forest_auc": highdim.forest_auc,
        "bursts_forest_prequential": bursts.prequential["bayes_forest"],
    }


def collect() -> dict:
    calibration = _calibration_seconds()
    classification = _classification_metrics()
    stream = _stream_metrics()
    serving = _serving_metrics()
    frontend = _frontend_metrics()
    flat = _flat_metrics()
    tenant = _tenant_metrics()
    fairness = _fairness_metrics()
    scenarios = _scenario_metrics()
    drift = run_drift_recovery_experiment(
        size=600, warmup=64, window=100, decay_rate=0.02, expiry_threshold=1e-3, random_state=0
    )

    metrics = {
        "classification_throughput_norm": {
            "value": classification["throughput_qps"] * calibration,
            "direction": "higher",
            "note": "full-refinement queries/s x calibration seconds (machine-normalised)",
        },
        "batch_speedup_vs_scalar": {
            "value": classification["speedup"],
            "direction": "higher",
            "note": "vectorised predict_batch vs scalar predict loop (dimensionless)",
        },
        "stream_wallclock_norm": {
            "value": stream["seconds"] / calibration,
            "direction": "lower",
            "note": "1436-object test-then-train wall-clock / calibration seconds",
        },
        "stream_accuracy": {
            "value": stream["accuracy"],
            "direction": "higher",
            "note": "prequential accuracy of the stationary test-then-train run (deterministic)",
        },
        "drift_recovery_accuracy": {
            "value": drift.decayed_post_drift_accuracy,
            "direction": "higher",
            "note": "decayed forest post-drift sliding-window accuracy (deterministic)",
        },
        "drift_recovery_gain": {
            "value": drift.recovery_gain,
            "direction": "higher",
            "note": "decayed minus plain post-drift accuracy (deterministic)",
        },
        "serving_throughput_1w_norm": {
            "value": serving["qps_1w"] * calibration,
            "direction": "higher",
            "note": "one-process engine serving queries/s x calibration seconds (machine-normalised)",
        },
        "frontend_trace_identical": {
            "value": 1.0 if frontend["trace_identical"] else 0.0,
            "direction": "higher",
            "note": "async front-end fixed-budget predictions == engine == lockstep trace (deterministic)",
        },
        "frontend_throughput_norm": {
            "value": frontend["qps"] * calibration,
            "direction": "higher",
            "note": "closed-loop async front-end queries/s x calibration seconds (machine-normalised)",
        },
        "frontend_adaptive_budget_ratio": {
            "value": frontend["mean_budget_slow"] / frontend["mean_budget_burst"],
            "direction": "higher",
            "note": "mean adaptive node budget at 40 req/s over 4000 req/s (same machine)",
        },
        "flat_trace_identical": {
            "value": 1.0 if flat["descent"]["identical"] else 0.0,
            "direction": "higher",
            "note": "the snapshot's flat columns and the twins compiled from the restored object graph give hash-equal traces (deterministic)",
        },
        "tenant_churn_bounded": {
            "value": 1.0 if tenant["churn"]["bounded"] and tenant["churn"]["released"] else 0.0,
            "direction": "higher",
            "note": (
                "32-tenant churn over a 4-entry registry: the process's shmem stays within "
                "capacity x the largest store (page-rounded) above its pre-run value, and "
                "returns to that value after close (deterministic; 1.0 or broken)"
            ),
        },
        "tenant_trace_identical": {
            "value": 1.0 if tenant["identity"]["identical"] else 0.0,
            "direction": "higher",
            "note": (
                "registry-served fixed-budget batch byte-identical across legacy and /v1 "
                "routes and equal to the lockstep trace predictions (deterministic; 1.0 or broken)"
            ),
        },
        "tenant_churn_p99_norm": {
            "value": tenant["churn"]["p99_ms"] / 1000.0 / calibration,
            "direction": "lower",
            "note": "p99 round latency under tenant churn / calibration seconds (cold reloads included)",
        },
        "tenant_cold_load_norm": {
            "value": tenant["churn"]["cold_load_ms_mean"] / 1000.0 / calibration,
            "direction": "lower",
            "note": "mean cold tenant load (manifest read + compile + shm publish) / calibration seconds",
        },
        "tenant_starvation_completion": {
            "value": fairness["background_completion"],
            "direction": "higher",
            "note": (
                "background tenant's served fraction under a 50x hot-tenant storm "
                "(deadline-bounded; 1.0 unless the scheduler starves it)"
            ),
        },
        "tenant_fairness_p99_norm": {
            "value": fairness["p99_ratio"],
            "direction": "lower",
            "note": (
                "background p99 under the 50x storm over its solo-baseline p99, median "
                "of five interleaved pairs (same machine, same client config; starvation "
                "blows this up)"
            ),
        },
        "scenario_forest_win_rate": {
            "value": scenarios["forest_win_rate"],
            "direction": "higher",
            "note": (
                "smoke scenario battery: fraction of (scenario, budget) cells where the "
                "forest matches or beats every baseline (deterministic)"
            ),
        },
        "scenario_highdim_forest_auc": {
            "value": scenarios["highdim_forest_auc"],
            "direction": "higher",
            "note": "forest budget-averaged holdout accuracy on the 120-d kernels scenario (deterministic)",
        },
        "scenario_bursts_forest_prequential": {
            "value": scenarios["bursts_forest_prequential"],
            "direction": "higher",
            "note": "forest prequential accuracy under adversarial burst budgets (deterministic)",
        },
    }
    return {
        "schema": SCHEMA,
        "calibration_s": calibration,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "metrics": metrics,
        # Full front-end detail for the PR 5 acceptance record: the fixed-
        # budget trace hash shared by the front-end / engine / lockstep
        # driver, and the adaptive-budget depth + accuracy/latency at both
        # arrival rates (deeper refinement when the stream is light).
        "frontend": frontend,
        # Full flat-forest detail for the PR 6 acceptance record: the
        # trace-identity verdict and hash.
        "flat": flat,
        # Multi-tenant registry detail for the PR 9 acceptance record: the
        # full churn-soak report (bounded-memory and release verdicts, cold
        # reload latencies) and the both-route-families trace-identity run
        # whose hash must match the PR 6 single-tenant front-end hash.
        "tenant": tenant,
        # Fairness battery detail for the admission-control acceptance
        # record: the solo and contended background trace summaries, the
        # hot tenant's rejection mix, and the client's DRR admission
        # snapshot (per-tenant granted shares and deficit counters).
        "fairness": fairness,
        # Scenario-battery headline detail (smoke subset; the full battery
        # runs nightly and in the published docs report).
        "scenarios": scenarios,
    }


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_pr9.json", help="where to write the JSON report")
    args = parser.parse_args(argv)
    report = collect()
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    for name, metric in report["metrics"].items():
        print(f"  {name:32s} {metric['value']:12.4f} ({metric['direction']} is better)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

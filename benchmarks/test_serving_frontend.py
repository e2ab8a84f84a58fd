"""Async front-end benchmark: closed/open-loop load and adaptive budgets.

Three claims are pinned (ISSUE 5 acceptance):

* **Trace identity.**  At a fixed per-query budget the async front-end's
  predictions equal ``ServingEngine.predict_batch`` and carry exactly the
  refinement trace hashed by ``classification_trace_hash`` — micro-batching
  must not change a single prediction.
* **Closed-loop overhead.**  Waves of ``classify_batch`` through the
  event-loop micro-batcher sustain a throughput comparable to the direct
  engine call (the front-end adds coalescing, not a second serving path);
  p50/p99 per-wave latencies are printed for the log.
* **Adaptive budgets realise the anytime curve as a serving policy.**  The
  same open-loop Poisson replay at a low arrival rate earns a strictly
  deeper mean refinement (granted node budget) than under burst load.

Everything runs on the one-process engine, so the numbers are about the
front-end and stay meaningful on single-core hosts.
"""

from __future__ import annotations

import pytest

from serving_load import (
    build_labelled_tail,
    build_serving_snapshot,
    run_frontend_closed_loop,
    run_frontend_open_loop,
    run_frontend_trace_identity,
    run_serving_load,
)

from conftest import print_heading, run_once

#: Open-loop arrival speeds (requests/second) probed by the tradeoff bench.
SLOW_SPEED = 40.0
BURST_SPEED = 4000.0

#: Closed-loop front-end throughput floor relative to the direct engine call.
#: The micro-batcher adds event-loop scheduling and a thread handoff per
#: round; it must never cost an order of magnitude.
MIN_RELATIVE_THROUGHPUT = 0.25


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("frontend-bench") / "forest.npz"
    queries = build_serving_snapshot(path, train_size=1600, query_size=256, random_state=0)
    return path, queries


def test_frontend_fixed_budget_is_trace_identical(snapshot):
    path, queries = snapshot
    report = run_frontend_trace_identity(path, queries[:96], node_budget=8)
    print_heading("async front-end fixed-budget trace identity")
    print(f"queries: {report['queries']}  budget: {report['node_budget']}")
    print(f"classification_trace_hash: {report['trace_hash']}")
    print(f"identical across frontend / engine / lockstep driver: {report['identical']}")
    assert report["identical"], "async front-end changed fixed-budget predictions"


def test_frontend_closed_loop_throughput(snapshot, benchmark):
    path, queries = snapshot

    def measure():
        direct = run_serving_load(path, queries=queries, batches=6, warmup=1)
        frontend = run_frontend_closed_loop(path, queries, batches=6, warmup=1)
        return direct, frontend

    direct, frontend = run_once(benchmark, measure)

    print_heading("closed-loop async front-end vs direct engine (256-query waves)")
    print(f"{'path':>10s} {'qps':>10s} {'p50 ms':>9s} {'p99 ms':>9s}")
    print(
        f"{'direct':>10s} {direct['qps']:10.0f} {direct['p50_ms']:9.2f} {direct['p99_ms']:9.2f}"
    )
    print(
        f"{'frontend':>10s} {frontend['qps']:10.0f} "
        f"{frontend['p50_ms']:9.2f} {frontend['p99_ms']:9.2f}"
    )
    relative = frontend["qps"] / direct["qps"]
    print(f"\nfront-end relative throughput: {relative:.2f}x (floor {MIN_RELATIVE_THROUGHPUT}x)")
    assert frontend["qps"] > 0 and frontend["p99_ms"] >= frontend["p50_ms"] > 0
    assert relative > MIN_RELATIVE_THROUGHPUT, (
        f"async front-end throughput collapsed to {relative:.2f}x of the direct engine call"
    )


def test_adaptive_budget_depth_tracks_arrival_rate(snapshot, benchmark):
    path, _ = snapshot
    tail = build_labelled_tail(train_size=1600, tail_size=200, random_state=0)

    def measure():
        slow = run_frontend_open_loop(path, tail, speed=SLOW_SPEED, limit=120)
        burst = run_frontend_open_loop(path, tail, speed=BURST_SPEED, limit=120)
        return slow, burst

    slow, burst = run_once(benchmark, measure)

    print_heading("open-loop adaptive budgets: light load vs burst (Poisson arrivals)")
    print(f"{'load':>8s} {'req/s':>8s} {'mean budget':>12s} {'accuracy':>9s} {'p99 ms':>9s}")
    for label, row, speed in (("slow", slow, SLOW_SPEED), ("burst", burst, BURST_SPEED)):
        latency = row.get("latency_ms", {}).get("p99", float("nan"))
        print(
            f"{label:>8s} {speed:8.0f} {row['mean_node_budget']:12.2f} "
            f"{row['accuracy']:9.3f} {latency:9.2f}"
        )
    assert slow["served"] > 0 and burst["served"] > 0
    assert slow["mean_node_budget"] > burst["mean_node_budget"], (
        "adaptive policy granted no deeper refinement under light load "
        f"({slow['mean_node_budget']} vs {burst['mean_node_budget']})"
    )

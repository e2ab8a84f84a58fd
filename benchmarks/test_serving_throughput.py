"""Serving engine benchmark: throughput and latency against micro-batch size.

Prints a queries/sec + p50/p99 latency table for the one-process engine at
several micro-batch sizes, and pins the correctness contract: the engine's
predictions — full refinement or budgeted — are bit-identical to the
in-process classifier on the restored snapshot.  Absolute throughput is
left to the regression gate (``serving_throughput_1w_norm`` in
``collect_bench.py``, calibration-normalised).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.persist import load_forest
from repro.serving import ServingEngine
from serving_load import build_serving_snapshot, run_serving_load

from conftest import print_heading, run_once

#: Micro-batch sizes probed by the sweep (rows per ``predict_batch`` round).
SWEEP_BATCH_SIZES = (16, 64, 256)


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "forest.npz"
    queries = build_serving_snapshot(path, train_size=1600, query_size=256, random_state=0)
    return path, queries


def test_engine_serves_bit_identical_predictions(snapshot):
    path, queries = snapshot
    local = load_forest(path)
    measured = run_serving_load(path, queries[:64], batches=1, warmup=0)
    assert measured["qps"] > 0
    with ServingEngine(path) as engine:
        assert engine.predict_batch(queries) == local.predict_batch(queries)
        assert engine.predict_batch(queries[:64], node_budget=15) == local.predict_batch(
            queries[:64], node_budget=15
        )


def test_serving_throughput_scaling(snapshot, benchmark):
    """Throughput of full-refinement rounds as the micro-batch grows."""
    path, queries = snapshot

    def sweep():
        return {
            size: run_serving_load(path, queries[:size], batches=6, warmup=1)
            for size in SWEEP_BATCH_SIZES
        }

    results = run_once(benchmark, sweep)

    print_heading("serving throughput vs micro-batch size (full refinement)")
    print(f"{'rows':>8s} {'qps':>10s} {'p50 ms':>9s} {'p99 ms':>9s}")
    for size in sorted(results):
        row = results[size]
        print(f"{size:>8d} {row['qps']:10.0f} {row['p50_ms']:9.2f} {row['p99_ms']:9.2f}")

    for row in results.values():
        assert row["qps"] > 0
        assert row["p99_ms"] >= row["p50_ms"] > 0


def test_budgeted_serving_reuses_lockstep_driver(snapshot):
    """Budgeted (anytime) load is served by the lockstep driver with correct results."""
    path, queries = snapshot
    local = load_forest(path)
    budgets = np.asarray([5, 10, 15, 20] * 16)
    expected = [
        result.final_prediction
        for result in local.classify_anytime_batch(
            queries[:64], max_nodes=budgets, record_history=False
        )
    ]
    with ServingEngine(path) as engine:
        assert engine.predict_batch(queries[:64], node_budget=budgets) == expected

"""Flat-forest serving benchmark: descent speedup and zero-copy warm start.

Prints flat-column vs object-graph anytime descent timing (with the
trace-identity pin) and the 4-worker zero-copy warm start and memory split,
and asserts the qualitative claims that hold on any machine: traces are
hash-identical and every worker attaches the one shared segment and
reports its warm start and memory split.  Absolute
milliseconds are left to the regression gate (``collect_bench.py`` +
``min_cores``), which runs on known hardware.
"""

from __future__ import annotations

import pytest

from serving_load import (
    build_serving_snapshot,
    run_flat_descent_comparison,
    run_warm_start_comparison,
)

from conftest import print_heading, run_once

#: Workers used for the warm-start comparison (processes, not cores — the
#: comparison is attach-vs-restore latency, valid on any core count).
WARM_START_WORKERS = 4


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("flat_serving") / "forest.npz"
    queries = build_serving_snapshot(path, train_size=1600, query_size=256, random_state=0)
    return path, queries


def test_flat_descent_is_trace_identical_and_not_slower(snapshot, benchmark):
    path, queries = snapshot
    result = run_once(
        benchmark, run_flat_descent_comparison, path, queries[:128], max_nodes=20
    )
    print_heading("flat-column vs object-graph anytime descent (128 queries, budget 20)")
    print(f"  object graph : {result['object_s'] * 1e3:8.1f} ms")
    print(f"  flat columns : {result['flat_s'] * 1e3:8.1f} ms")
    print(f"  speedup      : {result['speedup']:8.2f}x")
    print(f"  trace hash   : {result['trace_hash'][:16]}… identical={result['identical']}")
    assert result["identical"], "flat descent diverged from the object graph"
    # Qualitative bar only — the regression gate tracks the actual ratio.
    assert result["speedup"] > 0.8


def test_zero_copy_workers_report_warm_start_and_memory(snapshot, benchmark):
    path, queries = snapshot
    result = run_once(
        benchmark, run_warm_start_comparison, path, queries, workers=WARM_START_WORKERS
    )
    flat = result["zero_copy"]
    print_heading(f"zero-copy shard workers (n={WARM_START_WORKERS})")
    print(f"  warm start   : {flat['warm_start_ms_mean']:8.1f} ms (attach)")
    print(f"  private RSS  : {flat['private_kb_mean']:8.0f} kB")
    print(f"  shared RSS   : {flat['shared_kb_mean']:8.0f} kB")
    print(f"  segment      : {flat['shm_bytes']} bytes shared by {flat['n_workers']} workers")
    assert flat["n_workers"] == WARM_START_WORKERS
    assert flat["warm_start_ms_mean"] > 0
    assert flat["shared_kb_mean"] > 0 and flat["shm_bytes"] > 0

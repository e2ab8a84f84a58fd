"""Flat-forest serving benchmark: the snapshot's columns against the restored forest.

Prints the trace hash of the snapshot's flat columns and asserts it equals
the hash of the twins compiled from the restored object graph (the
``flat_trace_identical`` gate in ``collect_bench.py``).
"""

from __future__ import annotations

import pytest

from serving_load import build_serving_snapshot, run_flat_descent_comparison

from conftest import print_heading, run_once


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("flat_serving") / "forest.npz"
    queries = build_serving_snapshot(path, train_size=1600, query_size=256, random_state=0)
    return path, queries


def test_flat_descent_is_trace_identical(snapshot, benchmark):
    path, queries = snapshot
    result = run_once(
        benchmark, run_flat_descent_comparison, path, queries[:128], max_nodes=20
    )
    print_heading("snapshot flat columns vs restored forest (128 queries, budget 20)")
    print(f"  trace hash   : {result['trace_hash'][:16]}… identical={result['identical']}")
    assert result["identical"], "the snapshot's flat columns diverged from the restored forest"

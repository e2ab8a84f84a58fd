"""Zero-copy serving: shared-memory workers, LPT packing, segment lifecycle.

Pins the serving backend's shard pool through the one-tenant engine view:
the LPT shard planner balances per-class kernel counts, every worker
attaches the one shared-memory segment and reports its warm start and
memory split, snapshots without flat members are compiled on the fly
(construction and hot swap), and the segment is unlinked exactly once — on
close, after a swap, and even when a worker has been killed.
"""

import os
import signal
import time
# The crash/lifecycle tests below must attach to segments *raw* (bypassing
# attach_columns) to prove that worker death never unlinks the engine's
# segment — exactly the misuse RL003 exists to keep out of src/.
from multiprocessing import shared_memory  # reprolint: disable=RL003 -- lifecycle test needs raw attach

import numpy as np
import pytest

from repro.core import AnytimeBayesClassifier, BayesTreeConfig
from repro.data import make_dataset
from repro.persist import load_forest, save_forest
from repro.serving import ServingEngine, plan_shard_assignment


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    dataset = make_dataset("pendigits", size=360, random_state=8)
    config = BayesTreeConfig(decay_rate=0.01, expiry_threshold=1e-4)
    classifier = AnytimeBayesClassifier(config=config)
    for i in range(300):
        classifier.partial_fit(
            dataset.features[i], dataset.labels[i], timestamp=float(i) * 0.2
        )
    path = tmp_path_factory.mktemp("zero_copy") / "forest.npz"
    save_forest(classifier, path)
    legacy = tmp_path_factory.mktemp("zero_copy") / "legacy.npz"
    save_forest(classifier, legacy, include_flat=False)
    return path, legacy, dataset.features[300:]


def _shm_name(engine):
    return engine.registry.tenant_stats(engine.tenant)["shm_name"]


def _segment_is_gone(name):
    try:
        handle = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return True
    handle.close()
    return False


# -- shard planning -------------------------------------------------------------------------
def test_lpt_assignment_balances_loads():
    counts = [100, 1, 1, 1, 97, 1, 1, 96]
    bins = plan_shard_assignment(counts, 3)
    assert sorted(index for contents in bins for index in contents) == list(
        range(len(counts))
    )
    loads = [sum(counts[i] for i in contents) for contents in bins]
    # Round-robin strides would put 100+1+1 / 1+97+1 / 1+1+96 — fine here, but
    # with the heavy classes adjacent it skews badly; LPT keeps the spread
    # within the lightest class regardless of input order.
    assert max(loads) - min(loads) <= max(1, min(c for c in counts))
    heavy_shards = {
        next(s for s, contents in enumerate(bins) if i in contents)
        for i, count in enumerate(counts)
        if count > 90
    }
    assert len(heavy_shards) == 3  # one heavy class per shard
    for contents in bins:
        assert contents == sorted(contents)


def test_lpt_assignment_is_deterministic_and_total():
    counts = [5, 5, 5, 5]
    assert plan_shard_assignment(counts, 2) == plan_shard_assignment(counts, 2)
    # More shards than classes leaves trailing shards empty but loses nothing.
    bins = plan_shard_assignment([3, 2], 4)
    assert sorted(index for contents in bins for index in contents) == [0, 1]
    with pytest.raises(ValueError):
        plan_shard_assignment([1], 0)


def test_engine_assignment_covers_all_labels(snapshot):
    path, _, _ = snapshot
    with ServingEngine(path, workers=2) as engine:
        packed = engine.stats_snapshot()["tenants"][engine.tenant]["shard_classes"]
        assert len(packed) == engine.n_shards
        flattened = [label for shard in packed for label in shard]
        assert sorted(flattened) == sorted(str(label) for label in engine.labels)


# -- zero-copy serving ----------------------------------------------------------------------
def test_zero_copy_fallback_serves_identically(snapshot):
    path, _, queries = snapshot
    local = load_forest(path)
    with ServingEngine(path, workers=0) as engine:
        assert not engine.is_multiprocess
        assert engine.predict_batch(queries) == local.predict_batch(queries)
        stats = engine.stats_snapshot()
        assert stats["workers"] == 0 and stats["worker_profiles"] == []
        assert stats["structure"]["total_kernels"] > 0


def test_stats_report_segment_warm_start_and_memory(snapshot):
    path, _, queries = snapshot
    with ServingEngine(path, workers=2) as engine:
        engine.predict_batch(queries[:8])
        stats = engine.stats_snapshot()
        tenant = stats["tenants"][engine.tenant]
        assert tenant["shm_name"] and tenant["shm_bytes"] > 0
        assert len(stats["worker_profiles"]) == 2
        for profile in stats["worker_profiles"]:
            assert profile["segments"] == 1  # attached once, at load
            assert profile["warm_start_ms"] > 0
            assert profile["rss_kb"] > 0
            assert profile["shared_kb"] > 0
        assert len(tenant["shard_classes"]) == 2
        structure = stats["structure"]
        assert structure["n_classes"] == len(engine.labels)
        assert structure["total_kernels"] > 0
        for per_class in structure["classes"].values():
            assert sum(per_class["depth_profile"]) == per_class["n_kernels"]


# -- segment lifecycle ----------------------------------------------------------------------
def test_segment_is_unlinked_on_close(snapshot):
    path, _, queries = snapshot
    engine = ServingEngine(path, workers=2)
    try:
        name = _shm_name(engine)
        assert name is not None
        assert not _segment_is_gone(name)
        assert engine.predict_batch(queries[:4])
    finally:
        engine.close()
    assert _segment_is_gone(name)
    engine.close()  # idempotent


def test_swap_replaces_segment_and_unlinks_old(snapshot, tmp_path):
    path, _, queries = snapshot
    dataset = make_dataset("pendigits", size=400, random_state=21)
    retrained = AnytimeBayesClassifier(config=BayesTreeConfig(decay_rate=0.0))
    for i in range(340):
        retrained.partial_fit(dataset.features[i], dataset.labels[i], timestamp=float(i))
    new_path = tmp_path / "retrained.npz"
    save_forest(retrained, new_path)
    with ServingEngine(path, workers=2) as engine:
        old_name = _shm_name(engine)
        engine.swap_snapshot(new_path)
        new_name = _shm_name(engine)
        assert engine.stats.swaps == 1
        assert new_name != old_name
        assert _segment_is_gone(old_name)
        assert not _segment_is_gone(new_name)
        assert engine.predict_batch(queries) == retrained.predict_batch(queries)
        # Workers release the old attachment: each holds the new segment only.
        assert [p["segments"] for p in engine.registry.worker_profiles()] == [1, 1]
    assert _segment_is_gone(new_name)


def test_worker_crash_does_not_leak_the_segment(snapshot):
    path, _, queries = snapshot
    engine = ServingEngine(path, workers=2)
    try:
        name = _shm_name(engine)
        victim = engine.registry.worker_profiles()[0]["pid"]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.kill(victim, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    finally:
        engine.close()
    # The dead worker never ran cleanup, yet the registry-owned unlink
    # happened exactly once — the name is free and nothing spammed the
    # resource tracker.
    assert _segment_is_gone(name)


# -- compile-on-demand for legacy snapshots -------------------------------------------------
def test_snapshot_without_flat_members_is_compiled_engine_side(snapshot):
    path, legacy, queries = snapshot
    local = load_forest(path)
    with ServingEngine(legacy, workers=2) as engine:
        assert _shm_name(engine) is not None
        assert engine.predict_batch(queries) == local.predict_batch(queries)
        assert engine.predict_batch(queries, node_budget=8) == local.predict_batch(
            queries, node_budget=8
        )


def test_swap_to_legacy_snapshot_compiles_on_swap(snapshot):
    path, legacy, queries = snapshot
    local = load_forest(path)
    with ServingEngine(path, workers=2) as engine:
        engine.swap_snapshot(legacy)
        assert engine.snapshot_path == str(legacy)
        assert _shm_name(engine) is not None
        assert engine.predict_batch(queries) == local.predict_batch(queries)

"""Zero-copy serving: shared-memory workers, LPT packing, segment lifecycle.

Pins the serving backend's shard pool through the one-tenant engine view:
the LPT shard planner balances per-class kernel counts, every worker
attaches the one shared-memory segment and reports its warm start and
memory split, snapshots without flat members are compiled on the fly
(construction and hot swap), a segment's name is unlinked as soon as every
process has mapped it — so no name outlives a build and no resource tracker
process ever starts — and a dead shard worker degrades serving to
in-process rounds instead of breaking it.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import AnytimeBayesClassifier, BayesTreeConfig
from repro.data import make_dataset
from repro.persist import load_flat_forest, load_forest, save_forest
from repro.serving import ServingEngine, plan_shard_assignment, segment_exists

SRC = Path(__file__).resolve().parents[2] / "src"


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


@pytest.fixture(scope="module")
def retrained(tmp_path_factory):
    """Another forest over the same feature space, to swap to."""
    dataset = make_dataset("pendigits", size=400, random_state=21)
    classifier = AnytimeBayesClassifier(config=BayesTreeConfig(decay_rate=0.0))
    for i in range(340):
        classifier.partial_fit(dataset.features[i], dataset.labels[i], timestamp=float(i))
    path = tmp_path_factory.mktemp("zero_copy") / "retrained.npz"
    save_forest(classifier, path)
    return path, classifier


def _shm_name(engine):
    return engine.registry.tenant_stats(engine.tenant)["shm_name"]


def _kill_worker(engine, index=0):
    """SIGKILL one shard worker and wait until it is gone."""
    victim = engine.registry.worker_profiles()[index]["pid"]
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.kill(victim, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)


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
    """The name goes as soon as the build returns; the maps keep serving."""
    path, _, queries = snapshot
    local = load_forest(path)
    engine = ServingEngine(path, workers=2)
    try:
        name = _shm_name(engine)
        assert name is not None
        assert not segment_exists(name)
        assert engine.predict_batch(queries) == local.predict_batch(queries)
    finally:
        engine.close()
    assert not segment_exists(name)
    engine.close()  # idempotent


def test_swap_replaces_segment_and_unlinks_old(snapshot, retrained):
    path, _, queries = snapshot
    new_path, classifier = retrained
    with ServingEngine(path, workers=2) as engine:
        old_name = _shm_name(engine)
        engine.swap_snapshot(new_path)
        new_name = _shm_name(engine)
        assert engine.stats.swaps == 1
        assert new_name != old_name
        assert not segment_exists(old_name) and not segment_exists(new_name)
        assert engine.predict_batch(queries) == classifier.predict_batch(queries)
        # Workers release the old attachment: each holds the new segment only.
        assert [p["segments"] for p in engine.registry.worker_profiles()] == [1, 1]
    assert not segment_exists(new_name)


def test_worker_crash_does_not_leak_the_segment(snapshot):
    path, _, queries = snapshot
    engine = ServingEngine(path, workers=2)
    try:
        name = _shm_name(engine)
        _kill_worker(engine)
    finally:
        engine.close()
    # The dead worker never ran cleanup, and the name was gone before it died.
    assert not segment_exists(name)


def test_dead_worker_degrades_serving_to_in_process(snapshot, retrained):
    """Regression: one SIGKILLed shard worker made every later round raise
    ``BrokenProcessPool``; now the round that meets the broken pool, and
    every round after it, is served in-process from the parent's own map."""
    path, _, queries = snapshot
    new_path, classifier = retrained
    local = load_flat_forest(path)
    engine = ServingEngine(path, workers=2)
    try:
        names = [_shm_name(engine)]
        _kill_worker(engine)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                assert engine.predict_batch(queries, node_budget=8) == local.predict_batch(
                    queries, node_budget=8
                )
                assert engine.predict_batch(queries) == local.predict_batch(queries)
        assert [w.category for w in caught].count(RuntimeWarning) == 1
        assert engine.n_shards == 0 and not engine.is_multiprocess
        assert engine.stats_snapshot()["tenants"][engine.tenant]["shard_classes"] == []
        engine.swap_snapshot(new_path)
        names.append(_shm_name(engine))
        assert engine.predict_batch(queries) == classifier.predict_batch(queries)
        assert engine.predict_batch(queries, node_budget=8) == classifier.predict_batch(
            queries, node_budget=8
        )
    finally:
        engine.close()
    assert not any(segment_exists(name) for name in names)


def test_rounds_racing_the_pool_fallback_all_answer(snapshot):
    """Threads keep serving while a worker dies under them: every round, the
    ones that meet the broken pool and the ones that lose the race to shut
    it down included, answers with the in-process labels, and the pool is
    abandoned exactly once."""
    path, _, queries = snapshot
    local = load_flat_forest(path)
    expected = {None: local.predict_batch(queries), 8: local.predict_batch(queries, node_budget=8)}
    engine = ServingEngine(path, workers=2)
    started = threading.Barrier(5)
    outcomes, errors = [], []

    def serve(index):
        started.wait(timeout=30)
        after_fallback, deadline = 0, time.monotonic() + 60.0
        try:
            while after_fallback < 3 and time.monotonic() < deadline:
                budget = 8 if (index + len(outcomes)) % 2 else None
                answer = engine.predict_batch(queries, node_budget=budget)
                outcomes.append(answer == expected[budget])
                if engine.n_shards == 0:
                    after_fallback += 1
        except Exception as error:  # reported below, with the thread's outcomes
            errors.append(error)

    threads = [threading.Thread(target=serve, args=(index,), daemon=True) for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for thread in threads:
                thread.start()
            started.wait(timeout=30)
            _kill_worker(engine)
            for thread in threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert outcomes and all(outcomes)
        assert engine.n_shards == 0
        assert [w.category for w in caught].count(RuntimeWarning) == 1
    finally:
        sys.setswitchinterval(interval)
        engine.close()


#: Drives the serving stack in a fresh interpreter (so no tracker the test
#: process may already run can mask one) and reports, after every step, the
#: interpreter's child command lines and which of its segment names resolve.
_LIFECYCLE_SCRIPT = """
import json, os, sys
import numpy as np
from repro.serving import ModelRegistry, ServingEngine, registry as registry_module

path, other = sys.argv[1], sys.argv[2]
created = []
real_store = registry_module.SharedColumnStore

def recorded_store(columns):
    store = real_store(columns)
    created.append(store.name)
    return store

registry_module.SharedColumnStore = recorded_store
queries = np.asarray(json.loads(sys.stdin.read()), dtype=float)
steps = []

def check(step):
    children = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                parent = int(handle.read().rsplit(")", 1)[1].split()[1])
            if parent == os.getpid():
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    children.append(handle.read().replace(b"\\0", b" ").decode())
        except (OSError, ValueError, IndexError):
            continue
    linked = [name for name in created if os.path.exists("/dev/shm/" + name)]
    steps.append({"step": step, "children": children, "linked": linked})

engine = ServingEngine(path, workers=2)
check("engine constructed")
engine.predict_batch(queries)
engine.predict_batch(queries, node_budget=8)
check("engine served")
engine.swap_snapshot(other)
check("engine swapped")
engine.predict_batch(queries)
engine.close()
check("engine closed")
registry = ModelRegistry(capacity=1)
registry.load("a", path)
check("registry loaded")
registry.load("b", other)
check("registry overflow evicted")
registry.predict_batch("a", queries, node_budget=8)
check("registry cold reload")
registry.close()
check("registry closed")
print(json.dumps({"created": len(created), "steps": steps}))
"""


def test_serving_starts_no_resource_tracker_and_no_name_outlives_its_build(
    snapshot, retrained
):
    path, _, queries = snapshot
    new_path, _ = retrained
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", _LIFECYCLE_SCRIPT, str(path), str(new_path)],
        input=json.dumps(queries[:6].tolist()),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "leaked shared_memory" not in completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    # engine build + swap, then registry load, overflow load and cold reload
    assert report["created"] == 5
    for step in report["steps"]:
        trackers = [cmd for cmd in step["children"] if "resource_tracker" in cmd]
        assert not trackers, f"{step['step']}: a resource tracker runs: {trackers}"
        assert not step["linked"], f"{step['step']}: names still linked: {step['linked']}"
    served = next(step for step in report["steps"] if step["step"] == "engine served")
    assert len(served["children"]) == 2  # the two shard workers, nothing else


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

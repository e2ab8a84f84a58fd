"""Zero-copy serving: the one-process backend's shared-memory segments.

Pins the serving backend's segment lifecycle through the one-tenant engine
view: the engine serves every round in its own process over the zero-copy
forest that wraps the segment it built, a segment's name is unlinked as
soon as its columns are written — so no name outlives a build, not even
when the serving process is killed, and neither a resource tracker nor any
other child process ever starts — rounds racing hot swaps always answer
from a snapshot that was serving during the call, and snapshots without
flat members are compiled on the fly (construction and hot swap).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import AnytimeBayesClassifier, BayesTreeConfig
from repro.data import make_dataset
from repro.persist import load_flat_forest, load_forest, save_forest
from repro.serving import ServingEngine, segment_exists

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


# -- zero-copy serving ----------------------------------------------------------------------
def test_zero_copy_fallback_serves_identically(snapshot):
    path, _, queries = snapshot
    local = load_forest(path)
    with ServingEngine(path) as engine:
        assert engine.predict_batch(queries) == local.predict_batch(queries)
        stats = engine.stats_snapshot()
        assert "workers" not in stats and "worker_profiles" not in stats
        assert stats["structure"]["total_kernels"] > 0


def test_stats_report_segment_warm_start_and_memory(snapshot):
    """The one process reports its segment, the load that built it (the
    tenant's warm start) and the bytes it holds."""
    path, _, queries = snapshot
    with ServingEngine(path) as engine:
        engine.predict_batch(queries[:8])
        stats = engine.stats_snapshot()
        tenant = stats["tenants"][engine.tenant]
        assert tenant["shm_name"] and tenant["shm_bytes"] > 0
        assert tenant["cold_load_ms"] > 0
        assert stats["resident_bytes"] == tenant["shm_bytes"] == engine.registry.memory_bytes()
        assert "shard_classes" not in tenant
        structure = stats["structure"]
        assert structure["n_classes"] == len(engine.labels)
        assert structure["total_kernels"] > 0
        for per_class in structure["classes"].values():
            assert sum(per_class["depth_profile"]) == per_class["n_kernels"]


# -- segment lifecycle ----------------------------------------------------------------------
def test_segment_is_unlinked_on_close(snapshot):
    """The name goes as soon as the build returns; the map keeps serving."""
    path, _, queries = snapshot
    local = load_forest(path)
    engine = ServingEngine(path)
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
    with ServingEngine(path) as engine:
        old_name = _shm_name(engine)
        engine.swap_snapshot(new_path)
        new_name = _shm_name(engine)
        assert engine.stats.swaps == 1
        assert new_name != old_name
        assert not segment_exists(old_name) and not segment_exists(new_name)
        assert engine.predict_batch(queries) == classifier.predict_batch(queries)
        # The old segment was released: only the new one is resident.
        assert engine.registry.memory_bytes() == engine.registry.tenant_stats(engine.tenant)[
            "shm_bytes"
        ]
    assert not segment_exists(new_name)


#: Serves one round from a fresh engine, prints the segment name and waits
#: on stdin until it is killed.
_SERVE_AND_WAIT = """
import json, sys
import numpy as np
from repro.serving import ServingEngine

engine = ServingEngine(sys.argv[1])
queries = np.asarray(json.loads(sys.stdin.readline()), dtype=float)
engine.predict_batch(queries, node_budget=8)
print(engine.registry.tenant_stats(engine.tenant)["shm_name"], flush=True)
sys.stdin.readline()
"""


def test_worker_crash_does_not_leak_the_segment(snapshot):
    """A serving process SIGKILLed after its build runs no cleanup, and its
    segment's name is gone anyway: it went when the store was written."""
    path, _, queries = snapshot
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    server = subprocess.Popen(
        [sys.executable, "-c", _SERVE_AND_WAIT, str(path)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        server.stdin.write(json.dumps(queries[:4].tolist()) + "\n")
        server.stdin.flush()
        name = server.stdout.readline().strip()
        assert name.startswith("repro-forest-")
        assert server.poll() is None  # still serving, map held
        server.send_signal(signal.SIGKILL)
        assert server.wait(timeout=30) == -signal.SIGKILL
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
        server.stdin.close()
        server.stdout.close()
    assert not segment_exists(name)


def test_rounds_racing_swaps_answer_from_a_serving_snapshot(snapshot, retrained):
    """Four threads serve full and budget-8 rounds on one engine while it
    swaps back and forth: every answer is the whole answer of a snapshot
    that was serving at some moment during that call."""
    path, _, queries = snapshot
    new_path, _ = retrained
    expected = {}
    for source in (path, new_path):
        flat = load_flat_forest(source)
        expected[source] = {None: flat.predict_batch(queries), 8: flat.predict_batch(queries, 8)}
    assert expected[path][None] != expected[new_path][None]
    assert expected[path][8] != expected[new_path][8]
    # Serving snapshot k runs from the start of swap k-1 to the end of swap k.
    sequence = [path, new_path, path, new_path]
    swap_windows = []
    calls, errors = [], []
    engine = ServingEngine(path)
    started, swapped = threading.Barrier(5), threading.Event()

    def serve(index):
        started.wait(timeout=30)
        budget = 8 if index % 2 else None
        after_swaps = 0
        try:
            while after_swaps < 3:
                if swapped.is_set():
                    after_swaps += 1
                begin = time.monotonic()
                answer = engine.predict_batch(queries, node_budget=budget)
                calls.append((begin, time.monotonic(), budget, answer))
        except Exception as error:  # reported below, with the thread's calls
            errors.append(error)

    threads = [threading.Thread(target=serve, args=(index,), daemon=True) for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        started.wait(timeout=30)
        for target in sequence[1:]:
            begin = time.monotonic()
            engine.swap_snapshot(target)
            swap_windows.append((begin, time.monotonic()))
        swapped.set()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        engine.close()
    assert not errors, errors
    assert len(calls) >= 12
    starts = [float("-inf")] + [begin for begin, _ in swap_windows]
    ends = [end for _, end in swap_windows] + [float("inf")]
    for begin, end, budget, answer in calls:
        serving = {
            source
            for source, since, until in zip(sequence, starts, ends)
            if begin <= until and end >= since
        }
        assert any(answer == expected[source][budget] for source in serving)


#: Drives the serving stack in a fresh interpreter (so no child the test
#: process may already run can mask one) and reports, after every step, the
#: interpreter's child command lines and which of its segment names resolve.
_LIFECYCLE_SCRIPT = """
import json, os, sys
import numpy as np
from repro.serving import ModelRegistry, ServingEngine, segment_exists
from repro.serving import registry as registry_module

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
    linked = [name for name in created if segment_exists(name)]
    steps.append({"step": step, "children": children, "linked": linked})

engine = ServingEngine(path)
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
    assert len(report["steps"]) == 8
    for step in report["steps"]:
        # No resource tracker, no shard worker: the serving stack is one process.
        assert not step["children"], f"{step['step']}: child processes: {step['children']}"
        assert not step["linked"], f"{step['step']}: names still linked: {step['linked']}"


# -- compile-on-demand for legacy snapshots -------------------------------------------------
def test_snapshot_without_flat_members_is_compiled_engine_side(snapshot):
    path, legacy, queries = snapshot
    local = load_forest(path)
    with ServingEngine(legacy) as engine:
        assert _shm_name(engine) is not None
        assert engine.predict_batch(queries) == local.predict_batch(queries)
        assert engine.predict_batch(queries, node_budget=8) == local.predict_batch(
            queries, node_budget=8
        )


def test_swap_to_legacy_snapshot_compiles_on_swap(snapshot):
    path, legacy, queries = snapshot
    local = load_forest(path)
    with ServingEngine(path) as engine:
        engine.swap_snapshot(legacy)
        assert engine.snapshot_path == str(legacy)
        assert _shm_name(engine) is not None
        assert engine.predict_batch(queries) == local.predict_batch(queries)

"""ModelRegistry lifecycle: LRU eviction, drains, cold starts, idempotence."""

import shutil
import threading
import time

import numpy as np
import pytest

from repro.core import AnytimeBayesClassifier
from repro.data import make_dataset
from repro.evaluation import classification_trace_hash
from repro.persist import (
    SnapshotError,
    load_flat_forest,
    load_forest,
    save_forest,
    save_tenant_manifest,
)
from repro.serving import (
    ModelRegistry,
    RegistryClosedError,
    TenantNotFoundError,
    TenantPolicy,
)
from repro.serving import registry as registry_module


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    dataset = make_dataset("pendigits", size=280, random_state=21)
    classifier = AnytimeBayesClassifier()
    classifier.fit(dataset.features[:220], dataset.labels[:220])
    path = tmp_path_factory.mktemp("registry") / "forest.npz"
    save_forest(classifier, path)
    return path, dataset.features[220:252]


@pytest.fixture(scope="module")
def other_snapshot(tmp_path_factory):
    dataset = make_dataset("pendigits", size=240, random_state=5)
    classifier = AnytimeBayesClassifier()
    classifier.fit(dataset.features[:200], dataset.labels[:200])
    path = tmp_path_factory.mktemp("registry-other") / "other.npz"
    save_forest(classifier, path)
    return path


@pytest.fixture(scope="module")
def subset_snapshot(tmp_path_factory):
    """A forest over five of the ten pendigits classes (another class set)."""
    dataset = make_dataset("pendigits", size=400, random_state=9)
    keep = np.isin(dataset.labels, [0, 2, 4, 6, 8])
    classifier = AnytimeBayesClassifier()
    classifier.fit(dataset.features[keep], dataset.labels[keep])
    path = tmp_path_factory.mktemp("registry-subset") / "subset.npz"
    save_forest(classifier, path)
    return path


def _assert_released(store):
    """A disposed store hands out no views: its map is closed (or closing)."""
    with pytest.raises(ValueError, match="disposed"):
        store.views()


def test_lru_eviction_order_and_segment_unlink(snapshot, built_stores):
    path, queries = snapshot
    with ModelRegistry(capacity=2) as registry:
        registry.load("a", path)
        registry.load("b", path)
        registry.load("c", path)  # capacity 2: LRU tenant "a" must go
        assert registry.resident_tenants() == ["b", "c"]
        _assert_released(built_stores[0])
        assert registry.stats.evictions == 1
        # Serving "b" touches it; the next overflow must evict "c" instead.
        registry.predict_batch("b", queries[:4])
        registry.load("d", path)
        assert registry.resident_tenants() == ["b", "d"]
        # Evicted tenants stay registered for transparent reload.
        assert registry.known_tenants() == ["a", "b", "c", "d"]
        assert built_stores[1].views()  # "b" still serves from its store
    for store in built_stores:  # close() released every store
        _assert_released(store)


def test_capacity_bytes_bound_evicts_down(snapshot):
    path, _ = snapshot
    with ModelRegistry(capacity=8) as registry:
        registry.load("a", path)
        per_tenant = registry.tenant_stats("a")["shm_bytes"]
        registry.close()
    with ModelRegistry(capacity=8, capacity_bytes=int(per_tenant * 2.5)) as registry:
        registry.load("a", path)
        registry.load("b", path)
        registry.load("c", path)  # 3 segments > bound: LRU "a" must go
        assert registry.resident_tenants() == ["b", "c"]
        assert registry.memory_bytes() <= int(per_tenant * 2.5)


def test_evict_waits_for_in_flight_rounds(snapshot):
    path, queries = snapshot
    expected = load_flat_forest(path).predict_batch(queries[:4])
    with ModelRegistry(capacity=2) as registry:
        registry.load("a", path)
        entry = registry._acquire("a")  # pin an in-flight round by hand
        store = entry.store
        evictor = threading.Thread(target=registry.evict, args=("a",), daemon=True)
        try:
            evictor.start()
            time.sleep(0.15)
            # The eviction must be parked on the drain, and the pinned
            # round's forest still answers over the store's map.
            assert evictor.is_alive()
            assert entry.forest.predict_batch(queries[:4]) == expected
        finally:
            registry._release(entry)
        evictor.join(timeout=10)
        assert not evictor.is_alive()
        _assert_released(store)
        assert registry.resident_tenants() == []


def test_cold_start_prior_fallback(snapshot):
    path, queries = snapshot
    with ModelRegistry(capacity=2, prior_snapshot=path) as registry:
        direct = load_flat_forest(path).predict_batch(queries[:6])
        served = registry.predict_batch("never-seen", queries[:6])
        assert served == direct
        assert registry.stats.cold_start_requests == 6
        assert registry.resident_tenants() == []  # the prior is not a tenant
    with ModelRegistry(capacity=2) as registry:
        with pytest.raises(TenantNotFoundError, match="never-seen"):
            registry.predict_batch("never-seen", queries[:2])


def test_double_load_is_idempotent(snapshot, built_stores):
    path, _ = snapshot
    with ModelRegistry(capacity=2) as registry:
        first = registry.load("a", path)
        second = registry.load("a", path)
        assert second == first
        assert len(built_stores) == 1  # same store, no rebuild
        assert registry.stats.loads == 1
        assert built_stores[0].views()  # and it still serves


def test_resaved_snapshot_at_the_same_path_swaps(
    snapshot, other_snapshot, tmp_path, built_stores
):
    """Idempotence covers an unchanged file only: a forest re-saved at the
    resident path is loaded, not ignored as a double load."""
    path, queries = snapshot
    live = tmp_path / "live.npz"
    shutil.copyfile(path, live)
    with ModelRegistry(capacity=2) as registry:
        registry.load("a", live)
        assert registry.predict_batch("a", queries) == load_flat_forest(path).predict_batch(queries)
        save_forest(load_forest(other_snapshot), live)
        registry.load("a", live)
        assert registry.stats.swaps == 1
        _assert_released(built_stores[0])
        expected = load_flat_forest(other_snapshot).predict_batch(queries)
        assert registry.predict_batch("a", queries) == expected
        registry.load("a", live)  # the same, unchanged file: idempotent again
        assert registry.stats.swaps == 1 and registry.stats.loads == 2


def test_swap_keeps_serving_the_resident_snapshot_while_it_builds(
    snapshot, other_snapshot, monkeypatch
):
    """Rounds for a tenant whose swap is still building are served by the
    resident snapshot instead of parking for the whole build."""
    path, queries = snapshot
    old_answers = load_flat_forest(path).predict_batch(queries)
    new_answers = load_flat_forest(other_snapshot).predict_batch(queries)
    assert old_answers != new_answers
    building, release = threading.Event(), threading.Event()
    real_store = registry_module.SharedColumnStore

    def held_store(columns):
        building.set()
        release.wait(timeout=60)
        return real_store(columns)

    with ModelRegistry(capacity=2) as registry:
        registry.load("a", path)
        monkeypatch.setattr(registry_module, "SharedColumnStore", held_store)
        swapper = threading.Thread(target=registry.load, args=("a", other_snapshot), daemon=True)
        served = []
        server = threading.Thread(
            target=lambda: served.append(registry.predict_batch("a", queries)), daemon=True
        )
        try:
            swapper.start()
            assert building.wait(timeout=30), "the swap never started building"
            server.start()
            server.join(timeout=10)
            assert not server.is_alive(), "a round parked behind the swap's build"
            assert served == [old_answers]
        finally:
            release.set()
        swapper.join(timeout=60)
        assert not swapper.is_alive()
        assert registry.stats.swaps == 1
        assert registry.predict_batch("a", queries) == new_answers


def test_eviction_pops_before_draining(snapshot):
    """An eviction parked on an in-flight round has already taken the tenant
    out of service: new rounds park instead of pinning the doomed entry,
    then cold-reload once the eviction has finished."""
    path, queries = snapshot
    with ModelRegistry(capacity=2) as registry:
        registry.load("a", path)
        entry = registry._acquire("a")  # pin an in-flight round by hand
        store = entry.store
        evictor = threading.Thread(target=registry.evict, args=("a",), daemon=True)
        served = []
        server = threading.Thread(
            target=lambda: served.append(registry.predict_batch("a", queries[:4])), daemon=True
        )
        try:
            evictor.start()
            deadline = time.monotonic() + 10
            while registry.resident_tenants() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert registry.resident_tenants() == [] and evictor.is_alive()
            server.start()
            server.join(timeout=0.3)
            assert server.is_alive(), "a new round pinned the entry being evicted"
            assert entry.active == 1
        finally:
            registry._release(entry)
        evictor.join(timeout=30)
        server.join(timeout=30)
        _assert_released(store)
        assert served == [load_flat_forest(path).predict_batch(queries[:4])]
        assert registry.stats.evictions == 1 and registry.stats.reloads == 1


def _close_during_cold_build(registry, start_build, monkeypatch):
    """Close the registry while ``start_build()`` cold-loads a tenant.

    The snapshot read blocks until ``close()`` has returned.  Returns what
    the loading thread raised (or returned) and the stores it built.
    """
    reading, release = threading.Event(), threading.Event()
    real_read, real_store = registry_module.read_snapshot, registry_module.SharedColumnStore
    built = []

    def held_read(snapshot_path):
        reading.set()
        release.wait(timeout=60)
        return real_read(snapshot_path)

    def recorded_store(columns):
        store = real_store(columns)
        built.append(store)
        return store

    monkeypatch.setattr(registry_module, "read_snapshot", held_read)
    monkeypatch.setattr(registry_module, "SharedColumnStore", recorded_store)
    outcome = []

    def build():
        try:
            outcome.append(start_build())
        except Exception as error:
            outcome.append(error)

    loader = threading.Thread(target=build, daemon=True)
    loader.start()
    try:
        assert reading.wait(timeout=30), "the cold load never started reading"
        registry.close()
        assert registry.resident_tenants() == []
    finally:
        release.set()
    loader.join(timeout=60)
    assert not loader.is_alive()
    return outcome, built


@pytest.mark.parametrize("resident", [0, 1])
def test_close_racing_a_load_disposes_the_built_segment(snapshot, monkeypatch, resident):
    """Regression: a load whose build outlived close() installed the tenant
    after close()'s eviction pass, leaving its segment behind.  With another
    tenant resident, close() evicts it while the build is held."""
    path, _ = snapshot
    registry = ModelRegistry(capacity=2)
    for index in range(resident):
        registry.load(f"resident-{index}", path)
    registry.register("t", path)
    outcome, built = _close_during_cold_build(registry, lambda: registry.load("t"), monkeypatch)
    assert len(outcome) == 1 and isinstance(outcome[0], RegistryClosedError)
    assert registry.resident_tenants() == [] and registry.memory_bytes() == 0
    assert len(built) == 1
    _assert_released(built[0])


def test_close_racing_a_cold_reload_disposes_the_built_segment(snapshot, monkeypatch):
    """The same race through a request's transparent reload of a registered tenant."""
    path, queries = snapshot
    registry = ModelRegistry(capacity=2)
    registry.register("t", path)
    outcome, built = _close_during_cold_build(
        registry, lambda: registry.predict_batch("t", queries[:2]), monkeypatch
    )
    assert len(outcome) == 1 and isinstance(outcome[0], RegistryClosedError)
    assert registry.resident_tenants() == []
    assert len(built) == 1
    _assert_released(built[0])


def test_evicted_tenant_reloads_on_demand(snapshot):
    path, queries = snapshot
    with ModelRegistry(capacity=1) as registry:
        registry.load("a", path)
        registry.load("b", path)  # evicts "a"
        assert registry.resident_tenants() == ["b"]
        predictions = registry.predict_batch("a", queries[:4])  # cold reload
        assert len(predictions) == 4
        assert registry.stats.reloads == 1
        assert registry.resident_tenants() == ["a"]


def test_swap_replaces_resident_snapshot(snapshot, other_snapshot, built_stores):
    path, queries = snapshot
    with ModelRegistry(capacity=2) as registry:
        registry.load("a", path)
        before = registry.predict_batch("a", queries)
        registry.load("a", other_snapshot)
        assert registry.stats.swaps == 1
        _assert_released(built_stores[0])
        after = registry.predict_batch("a", queries)
        assert after == load_flat_forest(other_snapshot).predict_batch(queries)
        assert before == load_flat_forest(path).predict_batch(queries)


def test_tenant_policy_clamps_anytime_budgets(snapshot):
    path, queries = snapshot
    with ModelRegistry(capacity=2) as registry:
        registry.load("free", path)
        registry.load("capped", path, policy=TenantPolicy(max_node_budget=4))
        capped = registry.predict_batch("capped", queries, node_budget=64)
        assert capped == registry.predict_batch("free", queries, node_budget=4)
        # Full refinement is exact by definition and never clamped.
        full = registry.predict_batch("capped", queries)
        assert full == load_flat_forest(path).predict_batch(queries)


def test_per_tenant_trace_hash_matches_single_tenant(snapshot):
    path, queries = snapshot
    direct = load_flat_forest(path).classify_anytime_batch(queries, max_nodes=8)
    with ModelRegistry(capacity=2) as registry:
        registry.load("a", path)
        registry.load("b", path)
        registry.predict_batch("b", queries[:4])  # interleave other-tenant traffic
        served = registry.classify_anytime_batch("a", queries, max_nodes=8)
    assert classification_trace_hash(served) == classification_trace_hash(direct)


def test_stats_snapshot_schema(snapshot):
    path, queries = snapshot
    with ModelRegistry(capacity=2, prior_snapshot=path) as registry:
        registry.load("a", path, policy=TenantPolicy(max_node_budget=16))
        registry.predict_batch("a", queries[:4], node_budget=4)
        stats = registry.stats_snapshot()
        assert stats["schema_version"] == 5
        assert "workers" not in stats and "worker_profiles" not in stats
        assert stats["capacity"] == 2
        assert stats["resident"] == 1 and stats["registered"] == 1
        assert stats["resident_bytes"] > 0
        tenant = stats["tenants"]["a"]
        assert tenant["resident"] is True
        assert "shm_name" not in tenant and tenant["shm_bytes"] > 0
        assert tenant["requests"] == 4
        assert tenant["policy"] == {
            "max_node_budget": 16,
            "pinned": False,
            "weight": 1.0,
            "max_queue_depth": None,
            "requests_per_sec": None,
        }
        assert tenant["cold_load_ms"] > 0
        assert stats["prior"]["snapshot_path"] == str(path)


def test_tenants_with_different_class_sets_serve_their_own_forests(
    snapshot, subset_snapshot
):
    """Full and budgeted rounds for two tenants whose class sets differ, in
    one process, across swaps onto each other's snapshot and an eviction."""
    path, queries = snapshot

    def check(registry, tenant, source):
        flat = load_flat_forest(source)
        assert registry.predict_batch(tenant, queries) == flat.predict_batch(queries)
        assert registry.predict_batch(tenant, queries, node_budget=8) == flat.predict_batch(
            queries, node_budget=8
        )

    with ModelRegistry(capacity=2) as registry:
        registry.load("a", path)
        registry.load("b", subset_snapshot)
        sizes = {t: registry.tenant_stats(t)["shm_bytes"] for t in ("a", "b")}
        check(registry, "a", path)
        check(registry, "b", subset_snapshot)
        # Swap both tenants onto each other's snapshot between rounds.
        registry.load("a", subset_snapshot)
        registry.load("b", path)
        check(registry, "a", subset_snapshot)
        check(registry, "b", path)
        # Resident bytes follow the resident set.
        assert registry.memory_bytes() == sizes["a"] + sizes["b"]
        registry.evict("a")
        assert registry.memory_bytes() == sizes["a"]


def test_rejected_load_keeps_the_registration(snapshot, tmp_path):
    """A snapshot the registry rejects must not rewrite the tenant's
    registration: the old model serves on, and reloads after an eviction."""
    path, queries = snapshot
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"junk")
    expected = load_flat_forest(path).predict_batch(queries[:4])
    with ModelRegistry(capacity=2) as registry:
        registry.load("a", path)
        with pytest.raises(SnapshotError):
            registry.load("a", garbage)
        assert registry.tenant_stats("a")["snapshot_path"] == str(path)
        registry.evict("a")
        assert registry.predict_batch("a", queries[:4]) == expected  # cold reload
        # A failed first load leaves no phantom tenant behind.
        with pytest.raises(SnapshotError):
            registry.load("ghost", garbage)
        assert registry.known_tenants() == ["a"]


def test_swap_rejects_another_feature_dimension(snapshot, tmp_path):
    path, queries = snapshot
    other = AnytimeBayesClassifier()
    rng = np.random.default_rng(1)
    for _ in range(8):
        other.partial_fit(rng.normal(size=3), "a")  # wrong dimensionality
    wrong_dim = tmp_path / "wrong.npz"
    save_forest(other, wrong_dim)
    with ModelRegistry(capacity=2) as registry:
        registry.load("a", path)
        with pytest.raises(ValueError, match="dimension"):
            registry.load("a", wrong_dim)
        assert registry.stats.loads == 1 and registry.stats.swaps == 0
        assert registry.tenant_stats("a")["snapshot_path"] == str(path)
        assert len(registry.predict_batch("a", queries[:4])) == 4


def test_from_manifest_registers_lazily(snapshot, tmp_path):
    path, queries = snapshot
    manifest = tmp_path / "tenants.json"
    save_tenant_manifest(
        manifest,
        {
            "acme": {"snapshot": path},
            "capped": {"snapshot": path, "policy": {"max_node_budget": 4}},
        },
        prior_snapshot=path,
    )
    with ModelRegistry.from_manifest(manifest, capacity=2) as registry:
        assert registry.known_tenants() == ["acme", "capped"]
        assert registry.resident_tenants() == []  # lazy: nothing loaded yet
        assert len(registry.predict_batch("acme", queries[:4])) == 4
        assert registry.resident_tenants() == ["acme"]
        # The manifest's prior serves unknown tenants.
        assert len(registry.predict_batch("stranger", queries[:2])) == 2


def test_registry_validates_inputs(snapshot):
    path, queries = snapshot
    with pytest.raises(ValueError, match="capacity"):
        ModelRegistry(capacity=0)
    with pytest.raises(ValueError, match="max_node_budget"):
        TenantPolicy(max_node_budget=0)
    with pytest.raises(ValueError, match="unknown tenant policy"):
        TenantPolicy.from_dict({"bogus": 1})
    registry = ModelRegistry(capacity=2)
    with pytest.raises(ValueError, match="tenant"):
        registry.load("", path)
    with pytest.raises(ValueError, match="not registered"):
        registry.load("nobody")
    registry.load("a", path)
    with pytest.raises(ValueError, match="queries"):
        registry.predict_batch("a", queries[0])
    with pytest.raises(ValueError, match="budget"):
        registry.predict_batch("a", queries[:2], node_budget=0)
    # Float and bool budgets are refused like the classifier refuses them, not rounded.
    for budget in (2.5, True, np.array([1.5, 2.0])):
        with pytest.raises(ValueError, match="max_nodes"):
            registry.predict_batch("a", queries[:2], node_budget=budget)
    registry.close()
    with pytest.raises(RegistryClosedError):
        registry.predict_batch("a", queries[:2])

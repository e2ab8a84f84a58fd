"""v1 HTTP contract: tenant routes, legacy aliases, envelope, registry API.

The acceptance contract of the v1 redesign: the legacy unversioned routes
are *aliases* of ``/v1/tenants/{default}/...`` — for the default tenant the
two must return **byte-identical** payloads — and every error on every
endpoint speaks the one structured envelope with a stable code.
"""

import asyncio
import json
import math

import pytest

from repro.core import AnytimeBayesClassifier
from repro.data import make_dataset
from repro.persist import save_forest
from repro.serving import (
    AsyncServingClient,
    HttpFrontend,
    ModelRegistry,
    ServingEngine,
    TenantPolicy,
)


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    dataset = make_dataset("pendigits", size=280, random_state=21)
    classifier = AnytimeBayesClassifier()
    classifier.fit(dataset.features[:220], dataset.labels[:220])
    path = tmp_path_factory.mktemp("http-v1") / "forest.npz"
    save_forest(classifier, path)
    return path, dataset


async def _raw_request(host, port, method, path, payload=None):
    """One HTTP exchange; returns (status, headers dict, raw body bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        lines = [f"{method} {path} HTTP/1.1", f"Content-Length: {len(body)}", "Connection: close"]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        content = await reader.readexactly(int(headers["content-length"]))
        return status, headers, content
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _request(host, port, method, path, payload=None):
    status, _, content = await _raw_request(host, port, method, path, payload)
    return status, json.loads(content)


def _serve_engine(snapshot_path, coroutine_factory, **client_kwargs):
    """Engine client: the engine's one-tenant registry serves the default tenant."""

    async def main():
        with ServingEngine(snapshot_path) as engine:
            async with AsyncServingClient(engine, **{"linger_s": 0.001, **client_kwargs}) as client:
                async with HttpFrontend(client) as http:
                    return await coroutine_factory(engine, client, *http.address)

    return asyncio.run(main())


def _serve_registry(snapshot_path, coroutine_factory, **registry_kwargs):
    """Registry client: every tenant (default included) via the registry."""

    async def main():
        registry = ModelRegistry(**registry_kwargs)
        try:
            registry.load("default", snapshot_path)
            async with AsyncServingClient(
                registry=registry, linger_s=0.001
            ) as client:
                async with HttpFrontend(client) as http:
                    return await coroutine_factory(registry, client, *http.address)
        finally:
            registry.close()

    return asyncio.run(main())


def test_legacy_aliases_are_byte_identical_to_v1(snapshot):
    path, dataset = snapshot
    queries = dataset.features[220:236]

    async def scenario(engine, client, host, port):
        body = {"features": queries.tolist(), "node_budget": 6}
        legacy = await _raw_request(host, port, "POST", "/classify_batch", body)
        versioned = await _raw_request(
            host, port, "POST", "/v1/tenants/default/classify_batch", body
        )
        full_legacy = await _raw_request(
            host, port, "POST", "/classify_batch", {"features": queries.tolist()}
        )
        full_versioned = await _raw_request(
            host, port, "POST", "/v1/tenants/default/classify_batch",
            {"features": queries.tolist()},
        )
        return legacy, versioned, full_legacy, full_versioned

    legacy, versioned, full_legacy, full_versioned = _serve_engine(path, scenario)
    assert legacy[0] == versioned[0] == 200
    assert legacy[2] == versioned[2]  # byte-identical payloads
    assert full_legacy[2] == full_versioned[2]


def test_registry_only_default_tenant_aliases(snapshot):
    path, dataset = snapshot
    queries = dataset.features[220:232]

    async def scenario(registry, client, host, port):
        body = {"features": queries.tolist(), "node_budget": 6}
        legacy = await _raw_request(host, port, "POST", "/classify_batch", body)
        versioned = await _raw_request(
            host, port, "POST", "/v1/tenants/default/classify_batch", body
        )
        health = await _request(host, port, "GET", "/healthz")
        return legacy, versioned, health

    legacy, versioned, health = _serve_registry(path, scenario, capacity=2)
    assert legacy[0] == versioned[0] == 200
    assert legacy[2] == versioned[2]
    assert health[0] == 200 and health[1]["tenants"] == 1


def test_v1_classify_routes_to_the_named_tenant(snapshot):
    path, dataset = snapshot
    queries = dataset.features[220:232]

    async def scenario(registry, client, host, port):
        single = await _request(
            host, port, "POST", "/v1/tenants/default/classify",
            {"features": queries[0].tolist(), "node_budget": 6},
        )
        direct = registry.predict_batch("default", queries[:1], node_budget=6)
        unknown = await _request(
            host, port, "POST", "/v1/tenants/ghost/classify",
            {"features": queries[0].tolist()},
        )
        return single, direct, unknown

    single, direct, unknown = _serve_registry(path, scenario, capacity=2)
    assert single[0] == 200 and single[1]["prediction"] == direct[0]
    assert unknown[0] == 404
    assert unknown[1]["error"]["code"] == "tenant_not_found"


def test_v1_registry_load_evict_and_stats(snapshot):
    path, dataset = snapshot
    queries = dataset.features[220:228]

    async def scenario(registry, client, host, port):
        loaded = await _request(
            host, port, "POST", "/v1/registry/load",
            {"tenant": "acme", "snapshot_path": str(path)},
        )
        listing = await _request(host, port, "GET", "/v1/registry")
        served = await _request(
            host, port, "POST", "/v1/tenants/acme/classify_batch",
            {"features": queries.tolist()},
        )
        tenant_stats = await _request(host, port, "GET", "/v1/tenants/acme/stats")
        evicted = await _request(
            host, port, "POST", "/v1/registry/evict", {"tenant": "acme"}
        )
        relisted = await _request(host, port, "GET", "/v1/registry")
        return loaded, listing, served, tenant_stats, evicted, relisted

    loaded, listing, served, tenant_stats, evicted, relisted = _serve_registry(
        path, scenario, capacity=4
    )
    assert loaded[0] == 200 and loaded[1]["resident"] is True
    assert loaded[1]["cold_load_ms"] > 0
    assert listing[0] == 200 and listing[1]["schema_version"] == 5
    assert set(listing[1]["tenants"]) == {"acme", "default"}
    assert served[0] == 200 and served[1]["count"] == len(queries)
    assert tenant_stats[0] == 200 and tenant_stats[1]["requests"] == len(queries)
    assert evicted[0] == 200 and evicted[1] == {"evicted": True, "tenant": "acme"}
    assert relisted[1]["tenants"]["acme"]["resident"] is False


def test_v1_swap_loads_tenant_snapshot(snapshot, tmp_path):
    path, dataset = snapshot
    queries = dataset.features[220:228]
    other = tmp_path / "other.npz"
    classifier = AnytimeBayesClassifier()
    classifier.fit(dataset.features[:200], dataset.labels[:200])
    save_forest(classifier, other)

    async def scenario(registry, client, host, port):
        swap = await _request(
            host, port, "POST", "/v1/tenants/acme/swap", {"snapshot_path": str(other)}
        )
        served = await _request(
            host, port, "POST", "/v1/tenants/acme/classify_batch",
            {"features": queries.tolist()},
        )
        return swap, served

    swap, served = _serve_registry(path, scenario, capacity=4)
    assert swap[0] == 200
    assert swap[1] == {"swapped": True, "tenant": "acme", "snapshot_path": str(other)}
    assert served[0] == 200


def test_every_503_carries_retry_after(snapshot):
    path, dataset = snapshot
    queries = dataset.features[220:228]

    async def scenario(engine, client, host, port):
        tasks = [asyncio.ensure_future(client.classify(query)) for query in queries[:3]]
        await asyncio.sleep(0.02)
        rejected = await _raw_request(
            host, port, "POST", "/classify", {"features": queries[3].tolist()}
        )
        await asyncio.gather(*tasks)
        return rejected

    status, headers, content = _serve_engine(
        path, scenario, max_pending=3, linger_s=0.3
    )
    assert status == 503
    assert "retry-after" in headers
    envelope = json.loads(content)["error"]
    assert envelope["code"] == "queue_full"
    assert envelope["retry_after_ms"] >= 0
    # Whole seconds, rounded up: the header never tells a client to retry
    # sooner than the envelope does.
    assert int(headers["retry-after"]) * 1000 >= envelope["retry_after_ms"]


def test_quota_breach_is_an_enveloped_429_with_retry_after(snapshot):
    path, dataset = snapshot
    queries = dataset.features[220:228]

    async def scenario(engine, client, host, port):
        # Burst of 2 (rate 2/s): two instant requests pass, the third trips
        # the tenant's requests_per_sec quota.
        first = await _request(host, port, "POST", "/classify", {"features": queries[0].tolist()})
        second = await _request(host, port, "POST", "/classify", {"features": queries[1].tolist()})
        breach = await _raw_request(
            host, port, "POST", "/classify", {"features": queries[2].tolist()}
        )
        return first, second, breach

    first, second, (status, headers, content) = _serve_engine(
        path,
        scenario,
        tenant_policies={"default": TenantPolicy(requests_per_sec=2.0)},
    )
    assert first[0] == 200 and second[0] == 200
    assert status == 429
    assert "retry-after" in headers  # the 429 twin of the every-503 contract
    envelope = json.loads(content)["error"]
    assert envelope["code"] == "quota_exceeded"
    assert envelope["retry_after_ms"] > 0
    # The header is the envelope hint in whole seconds, rounded up.
    assert int(headers["retry-after"]) * 1000 >= envelope["retry_after_ms"]
    assert int(headers["retry-after"]) == math.ceil(envelope["retry_after_ms"] / 1000.0)


def test_tenant_queue_depth_bound_is_a_per_tenant_503(snapshot):
    path, dataset = snapshot
    queries = dataset.features[220:228]

    async def scenario(engine, client, host, port):
        # Long linger parks the first two requests in the tenant queue; the
        # third breaches max_queue_depth=2 while the global bound (1024) is
        # nowhere near full.
        tasks = [asyncio.ensure_future(client.classify(query)) for query in queries[:2]]
        await asyncio.sleep(0.02)
        rejected = await _raw_request(
            host, port, "POST", "/classify", {"features": queries[2].tolist()}
        )
        await asyncio.gather(*tasks)
        return rejected

    status, headers, content = _serve_engine(
        path,
        scenario,
        linger_s=0.3,
        tenant_policies={"default": TenantPolicy(max_queue_depth=2)},
    )
    assert status == 503
    assert "retry-after" in headers
    envelope = json.loads(content)["error"]
    assert envelope["code"] == "queue_full"
    assert "tenant" in envelope["message"]  # names the per-tenant bound, not the global one
    assert int(headers["retry-after"]) * 1000 >= envelope["retry_after_ms"]


def test_legacy_aliases_stay_byte_identical_under_admission_policies(snapshot):
    """The DRR scheduler + quota layer must not perturb the alias contract."""
    path, dataset = snapshot
    queries = dataset.features[220:236]

    async def scenario(engine, client, host, port):
        body = {"features": queries.tolist(), "node_budget": 6}
        legacy = await _raw_request(host, port, "POST", "/classify_batch", body)
        versioned = await _raw_request(
            host, port, "POST", "/v1/tenants/default/classify_batch", body
        )
        return legacy, versioned

    legacy, versioned = _serve_engine(
        path,
        scenario,
        tenant_policies={
            "default": TenantPolicy(weight=2.0, max_queue_depth=512, requests_per_sec=10_000.0)
        },
    )
    assert legacy[0] == versioned[0] == 200
    assert legacy[2] == versioned[2]


def test_tenant_stats_nest_the_admission_view(snapshot):
    path, dataset = snapshot
    queries = dataset.features[220:228]

    async def scenario(registry, client, host, port):
        await _request(
            host, port, "POST", "/v1/tenants/default/classify_batch",
            {"features": queries.tolist()},
        )
        stats = await _request(host, port, "GET", "/v1/tenants/default/stats")
        merged = await _request(host, port, "GET", "/stats")
        return stats, merged

    stats, merged = _serve_registry(path, scenario, capacity=2)
    assert stats[0] == 200
    admission = stats[1]["admission"]
    assert admission["granted"] == len(queries)
    assert admission["queue_depth"] == 0
    assert admission["policy"] == {
        "weight": 1.0,
        "max_queue_depth": None,
        "requests_per_sec": None,
    }
    assert merged[0] == 200 and merged[1]["schema_version"] == 6
    assert stats[1]["structure"]["total_kernels"] > 0
    frontend = merged[1]["frontend"]
    assert frontend["rejected_quota"] == 0
    assert frontend["admission"]["tenants"]["default"]["granted"] == len(queries)


def test_error_envelope_shape_is_uniform(snapshot):
    path, dataset = snapshot

    async def scenario(engine, client, host, port):
        not_found = await _request(host, port, "GET", "/v1/tenants/a")  # malformed route
        bad_json_raw = await _raw_request(host, port, "POST", "/v1/tenants/default/classify")
        no_registry = await _request(host, port, "GET", "/v1/registry")
        return not_found, bad_json_raw, no_registry

    not_found, bad_json_raw, no_registry = _serve_engine(path, scenario)
    assert not_found[0] == 404 and not_found[1]["error"]["code"] == "not_found"
    status, _, content = bad_json_raw
    assert status == 400
    envelope = json.loads(content)["error"]
    assert envelope["code"] == "bad_request" and envelope["message"]
    assert no_registry[0] == 404 and no_registry[1]["error"]["code"] == "not_found"

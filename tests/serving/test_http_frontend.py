"""HTTP shim: wire protocol, routing and error-code mapping.

The requests are written over raw asyncio sockets (no HTTP client library),
which doubles as a test of the shim's actual wire format.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core import AnytimeBayesClassifier
from repro.data import make_dataset
from repro.persist import load_forest, save_forest
from repro.serving import AsyncServingClient, HttpFrontend, ServingEngine


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    dataset = make_dataset("pendigits", size=280, random_state=21)
    classifier = AnytimeBayesClassifier()
    classifier.fit(dataset.features[:220], dataset.labels[:220])
    path = tmp_path_factory.mktemp("http") / "forest.npz"
    save_forest(classifier, path)
    return path, dataset


async def _request(host, port, method, path, payload=None, extra_headers=()):
    """One HTTP exchange over a fresh connection; returns (status, json body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        lines = [f"{method} {path} HTTP/1.1", f"Content-Length: {len(body)}", "Connection: close"]
        lines.extend(extra_headers)
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        content = await reader.readexactly(int(headers["content-length"]))
        return status, json.loads(content)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _serve(snapshot_path, coroutine_factory, **client_kwargs):
    """Run a coroutine against a started engine + client + HTTP front-end."""

    async def main():
        with ServingEngine(snapshot_path) as engine:
            async with AsyncServingClient(engine, **{"linger_s": 0.001, **client_kwargs}) as client:
                async with HttpFrontend(client) as http:
                    host, port = http.address
                    return await coroutine_factory(engine, client, host, port)

    return asyncio.run(main())


def test_healthz_and_stats(snapshot):
    path, _ = snapshot

    async def scenario(engine, client, host, port):
        health = await _request(host, port, "GET", "/healthz")
        stats = await _request(host, port, "GET", "/stats")
        tenant = await _request(host, port, "GET", "/v1/tenants/default/stats")
        return health, stats, tenant

    (health_status, health), (stats_status, stats), (tenant_status, tenant) = _serve(
        path, scenario
    )
    assert health_status == 200 and health["status"] == "ok"
    assert health["snapshot_path"] == str(path)
    assert health["tenants"] == 1 and "workers" not in health
    # An engine client's /stats and tenant stats come from the engine's registry.
    assert stats_status == 200 and stats["schema_version"] == 6
    assert "workers" not in stats["registry"] and "worker_profiles" not in stats["registry"]
    assert stats["registry"]["tenants"]["default"]["snapshot_path"] == str(path)
    assert stats["structure"]["default"]["total_kernels"] > 0
    assert stats["frontend"]["queue_depth"] == 0
    assert "arrival" in stats["frontend"]
    assert tenant_status == 200 and tenant["snapshot_path"] == str(path)
    assert tenant["structure"]["total_kernels"] > 0 and "admission" in tenant


def test_classify_routes_match_direct_engine(snapshot):
    path, dataset = snapshot
    queries = dataset.features[220:236]

    async def scenario(engine, client, host, port):
        single = await _request(
            host, port, "POST", "/classify",
            {"features": queries[0].tolist(), "node_budget": 6},
        )
        batch = await _request(
            host, port, "POST", "/classify_batch",
            {"features": queries.tolist(), "node_budget": 6},
        )
        full = await _request(host, port, "POST", "/classify", {"features": queries[0].tolist()})
        adaptive = await _request(
            host, port, "POST", "/classify",
            {"features": queries[0].tolist(), "node_budget": "adaptive"},
        )
        direct_fixed = engine.predict_batch(queries, node_budget=6)
        direct_full = engine.predict_batch(queries[:1])
        return single, batch, full, adaptive, direct_fixed, direct_full

    single, batch, full, adaptive, direct_fixed, direct_full = _serve(path, scenario)
    assert single[0] == 200 and single[1]["prediction"] == direct_fixed[0]
    assert single[1]["node_budget"] == 6 and single[1]["latency_ms"] >= 0
    assert batch[0] == 200 and batch[1]["predictions"] == direct_fixed
    assert batch[1]["count"] == len(queries)
    assert full[0] == 200 and full[1]["prediction"] == direct_full[0]
    assert full[1]["node_budget"] is None
    assert adaptive[0] == 200 and adaptive[1]["node_budget"] >= 1


def test_error_codes(snapshot):
    path, dataset = snapshot

    async def scenario(engine, client, host, port):
        not_found = await _request(host, port, "GET", "/nope")
        bad_json = await _request(host, port, "POST", "/classify")
        bad_budgets = [
            await _request(
                host, port, "POST", "/classify",
                {"features": dataset.features[220].tolist(), "node_budget": budget},
            )
            for budget in (-3, 2.7, True)
        ]
        bad_shape = await _request(
            host, port, "POST", "/classify", {"features": [1.0, 2.0]},
        )
        # json.dumps writes NaN as the bare token that json.loads accepts.
        not_finite = await _request(
            host, port, "POST", "/v1/tenants/default/classify",
            {"features": [float("nan")] + dataset.features[220, 1:].tolist()},
        )
        timeout = await _request(
            host, port, "POST", "/classify",
            {"features": dataset.features[220].tolist(), "deadline_ms": 1},
        )
        return not_found, bad_json, bad_budgets, bad_shape, not_finite, timeout

    not_found, bad_json, bad_budgets, bad_shape, not_finite, timeout = _serve(
        path, scenario, linger_s=0.1
    )
    assert not_found[0] == 404
    assert not_found[1]["error"]["code"] == "not_found"
    assert bad_json[0] == 400 and "JSON" in bad_json[1]["error"]["message"]
    assert bad_json[1]["error"]["code"] == "bad_request"
    for status, body in bad_budgets:  # refused by the client, before admission
        assert status == 400 and body["error"]["code"] == "bad_request"
        assert "node_budget" in body["error"]["message"]
    assert bad_shape[0] == 400
    assert not_finite[0] == 400 and not_finite[1]["error"]["code"] == "bad_request"
    assert "finite" in not_finite[1]["error"]["message"]
    assert timeout[0] == 504
    assert timeout[1]["error"]["code"] == "deadline_exceeded"


def test_malformed_framing_gets_a_400_response(snapshot):
    """Unparseable requests must be answered on the wire, not just dropped."""
    path, _ = snapshot

    async def scenario(engine, client, host, port):
        async def raw(request: bytes) -> int:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(request)
                await writer.drain()
                status_line = await reader.readline()
                return int(status_line.split()[1])
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass

        bad_line = await raw(b"GET /\r\n\r\n")
        bad_length = await raw(b"POST /classify HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
        return bad_line, bad_length

    bad_line, bad_length = _serve(path, scenario)
    assert bad_line == 400
    assert bad_length == 400


def test_queue_full_maps_to_503(snapshot):
    path, dataset = snapshot
    queries = dataset.features[220:228]

    async def scenario(engine, client, host, port):
        # Park enough requests to fill the bounded queue during the linger.
        tasks = [asyncio.ensure_future(client.classify(query)) for query in queries[:3]]
        await asyncio.sleep(0.02)
        rejected = await _request(
            host, port, "POST", "/classify", {"features": queries[3].tolist()}
        )
        await asyncio.gather(*tasks)
        return rejected

    status, body = _serve(path, scenario, max_pending=3, linger_s=0.3)
    assert status == 503
    assert body["error"]["code"] == "queue_full"
    assert "full" in body["error"]["message"]
    assert body["error"]["retry_after_ms"] >= 0


def test_swap_endpoint_switches_snapshots(snapshot, tmp_path):
    path, dataset = snapshot
    queries = dataset.features[220:232]
    classifier = load_forest(path)
    rng = np.random.default_rng(9)
    for _ in range(80):
        classifier.partial_fit(rng.normal(size=queries.shape[1]) * 0.1, "intruder")
    swapped_path = tmp_path / "swapped.npz"
    save_forest(classifier, swapped_path)

    async def scenario(engine, client, host, port):
        before = await _request(
            host, port, "POST", "/classify_batch", {"features": queries.tolist()}
        )
        swap = await _request(
            host, port, "POST", "/swap", {"snapshot_path": str(swapped_path)}
        )
        after = await _request(
            host, port, "POST", "/classify_batch", {"features": queries.tolist()}
        )
        bad_swap = await _request(
            host, port, "POST", "/swap", {"snapshot_path": str(tmp_path / "missing.npz")}
        )
        return before, swap, after, bad_swap, engine.stats.swaps

    before, swap, after, bad_swap, swaps = _serve(path, scenario)
    assert before[0] == 200 and before[1]["predictions"] == load_forest(path).predict_batch(queries)
    assert swap[0] == 200 and swap[1]["snapshot_path"] == str(swapped_path)
    assert after[0] == 200
    assert after[1]["predictions"] == load_forest(swapped_path).predict_batch(queries)
    assert bad_swap[0] in (400, 500)  # engine-side validation failure surfaces as an error
    assert swaps == 1


def test_keep_alive_serves_sequential_requests(snapshot):
    path, dataset = snapshot

    async def scenario(engine, client, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            statuses = []
            for _ in range(3):
                writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                statuses.append(int(status_line.split()[1]))
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                await reader.readexactly(int(headers["content-length"]))
            return statuses
        finally:
            writer.close()
            await writer.wait_closed()

    assert _serve(path, scenario) == [200, 200, 200]

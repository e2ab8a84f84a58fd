"""Multi-tenant serving: one ModelRegistry, many tenants, one process.

Demonstrates the v1 multi-tenant serving stack end to end:

1. train three tenants' forests and write per-tenant snapshots plus a
   tenant manifest (``repro.persist.save_tenant_manifest``),
2. stand a :class:`repro.serving.ModelRegistry` up from the manifest — an
   LRU cache of flat shared-memory snapshots (capacity 2 here, so three
   tenants *must* churn) with a shared global prior forest for tenants
   nobody has onboarded yet,
3. serve interleaved per-tenant traffic through the asyncio front-end and
   the versioned HTTP API (``/v1/tenants/{tenant}/classify_batch``,
   ``/v1/registry``), showing cold loads, LRU evictions and the cold-start
   prior fallback as they happen,
4. print the nested per-tenant ``stats_snapshot()`` the ``/stats`` route
   exposes.

Run with:  python examples/multi_tenant_serving.py
"""

import asyncio
import json
import tempfile
from pathlib import Path

from repro import AnytimeBayesClassifier, make_dataset, save_forest
from repro.persist import save_tenant_manifest
from repro.serving import AsyncServingClient, HttpFrontend, ModelRegistry

#: Per-tenant training seeds — three tenants with genuinely different models.
TENANT_SEEDS = {"acme": 3, "globex": 7, "initech": 11}


async def http_demo(host: str, port: int, features) -> None:
    """One raw /v1 exchange, printed so the versioned wire protocol is visible."""
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps({"features": [list(features)]}).encode()
    writer.write(
        f"POST /v1/tenants/acme/classify_batch HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n".encode() + body
    )
    await writer.drain()
    status = (await reader.readline()).decode().strip()
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = (await reader.readexactly(int(headers["content-length"]))).decode().strip()
    writer.close()
    await writer.wait_closed()
    print(f"  HTTP {status}")
    print(f"  response: {payload}")


async def main() -> None:
    # 1. One snapshot per tenant, plus a shared prior for unknown tenants.
    root = Path(tempfile.mkdtemp())
    tenants = {}
    for tenant, seed in TENANT_SEEDS.items():
        dataset = make_dataset("pendigits", size=700, random_state=seed)
        classifier = AnytimeBayesClassifier()
        classifier.fit(dataset.features[:600], dataset.labels[:600])
        snapshot = root / f"{tenant}.npz"
        save_forest(classifier, snapshot)
        tenants[tenant] = {"snapshot": snapshot}
    manifest = root / "tenants.json"
    save_tenant_manifest(manifest, tenants, prior_snapshot=root / "acme.npz")
    queries = make_dataset("pendigits", size=700, random_state=3).features[600:]
    print(f"manifest: {len(tenants)} tenants -> {manifest}")

    # 2. Registry capacity 2 < 3 tenants: serving all three forces LRU churn.
    registry = ModelRegistry.from_manifest(manifest, capacity=2)
    try:
        async with AsyncServingClient(registry=registry, linger_s=0.001) as client:
            # 3a. Interleaved tenant traffic through the front-end.
            print(f"\n{'tenant':>10s} {'prediction':>10s} {'resident afterwards'}")
            for tenant in ("acme", "globex", "initech", "acme"):
                predictions = await client.classify_batch(queries[:8], tenant=tenant)
                print(
                    f"{tenant:>10s} {predictions[0]:>10d} {registry.resident_tenants()}"
                )
            # An unknown tenant falls back to the shared prior forest.
            stranger = await client.classify_batch(queries[:4], tenant="newcomer")
            print(f"{'newcomer':>10s} {stranger[0]:>10d} (served by the global prior)")

            # 3b. The versioned HTTP surface on top.
            async with HttpFrontend(client) as http:
                host, port = http.address
                print(f"\nHTTP API on http://{host}:{port}")
                await http_demo(host, port, queries[0])

        # 4. The per-tenant stats the /stats and /v1/registry routes expose.
        stats = registry.stats_snapshot()
        print(f"\nregistry: {stats['resident']}/{stats['registered']} resident, "
              f"{stats['counters']['evictions']} evictions, "
              f"{stats['counters']['cold_start_requests']} prior-served requests")
        for tenant, entry in stats["tenants"].items():
            state = "resident" if entry["resident"] else "evicted"
            print(f"  {tenant:>10s} {state:>8s} loads={entry['loads']} "
                  f"requests={entry.get('requests', '-')}")
    finally:
        registry.close()


if __name__ == "__main__":
    asyncio.run(main())

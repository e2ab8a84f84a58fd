"""Async serving front-end: HTTP shim, adaptive budgets, two arrival rates.

Demonstrates the ISSUE 5 request layer end to end:

1. train a forest, snapshot it and serve it from a
   :class:`repro.serving.ServingEngine`,
2. put the asyncio front-end on top — an :class:`AsyncServingClient`
   (event-loop micro-batcher with backpressure and deadlines) plus the
   stdlib :class:`HttpFrontend` speaking JSON over ``/classify``,
   ``/classify_batch``, ``/healthz``, ``/stats`` and ``/swap``,
3. drive it open loop at a *light* and a *bursty* arrival rate with
   ``node_budget=ADAPTIVE`` and print the node budget the arrival-rate
   estimator chose, with the accuracy and latency it bought — the paper's
   anytime curve realised as a serving policy,
4. make one raw HTTP request so the wire protocol is visible.

Run with:  python examples/async_serving.py
"""

import asyncio
import json
import tempfile
from pathlib import Path

from repro import AnytimeBayesClassifier, make_dataset, save_forest
from repro.evaluation import RequestTrace
from repro.serving import ADAPTIVE, AsyncServingClient, HttpFrontend, ServingEngine, drive_open_loop
from repro.stream import DataStream, PoissonArrival

#: Open-loop arrival rates (requests/second) driven against the front-end.
LIGHT_RPS = 40.0
BURST_RPS = 4000.0


async def http_demo(host: str, port: int, features) -> None:
    """One raw /classify exchange, printed so the JSON protocol is visible."""
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps({"features": list(features), "node_budget": "adaptive"}).encode()
    writer.write(
        f"POST /classify HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
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
    # 1. Train, snapshot, serve.
    dataset = make_dataset("pendigits", size=1000, random_state=11)
    train_until = 800
    classifier = AnytimeBayesClassifier()
    classifier.fit(dataset.features[:train_until], dataset.labels[:train_until])
    snapshot = Path(tempfile.mkdtemp()) / "forest.npz"
    save_forest(classifier, snapshot)
    tail = dataset.tail(train_until)
    print(f"snapshot: {classifier.n_classes} classes, serving the {len(tail.labels)}-object tail")

    with ServingEngine(snapshot, workers=0) as engine:
        async with AsyncServingClient(engine, max_pending=512, linger_s=0.001) as client:
            # 2. The HTTP shim — external load generators would hit this.
            async with HttpFrontend(client) as http:
                host, port = http.address
                print(f"\nHTTP shim listening on http://{host}:{port}")
                await http_demo(host, port, tail.features[0])

            # 3. Open-loop adaptive-budget replay at two arrival rates.
            print(f"\n{'load':>8s} {'req/s':>8s} {'mean budget':>12s} {'accuracy':>9s} {'p99 ms':>9s}")
            for label, speed in (("light", LIGHT_RPS), ("burst", BURST_RPS)):
                stream = DataStream(tail, arrival=PoissonArrival(rate=1.0), random_state=5)
                records = await drive_open_loop(
                    client, stream, speed=speed, limit=120, node_budget=ADAPTIVE
                )
                trace = RequestTrace.from_records(records)
                summary = trace.summary()
                print(
                    f"{label:>8s} {speed:8.0f} {summary['mean_node_budget']:12.2f} "
                    f"{summary['accuracy']:9.3f} {summary['latency_ms']['p99']:9.2f}"
                )
            print(
                "\nthe estimator converts idle time into refinement depth: light traffic"
                "\nearns deep node budgets, the burst degrades gracefully to shallow ones"
            )
            print(f"\nfront-end stats: {client.stats_snapshot()}")
        print(f"engine stats: {engine.stats_snapshot()}")


if __name__ == "__main__":
    asyncio.run(main())

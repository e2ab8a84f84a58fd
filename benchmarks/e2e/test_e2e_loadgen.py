"""The load generator charges stalls from the due time; the checker catches wrong labels."""

from __future__ import annotations

import asyncio
import json
from dataclasses import replace
from pathlib import Path
from typing import Awaitable, Callable, List, Tuple

import loadgen
import numpy as np
from inputs import ServeInputs, Snapshot
from runner import Answers, score
from workloads import WORKLOADS, ServeWorkload

Respond = Callable[[dict], Awaitable[dict]]


async def _fake_server(respond: Respond) -> Tuple[asyncio.AbstractServer, int]:
    """A keep-alive HTTP server answering every request with ``respond(json body)``."""

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = next(
                    int(line.split(":")[1])
                    for line in head.decode("latin-1").split("\r\n")
                    if line.lower().startswith("content-length")
                )
                payload = await respond(json.loads(await reader.readexactly(length)))
                body = json.dumps(payload).encode()
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body
                )
                await writer.drain()
        except asyncio.IncompleteReadError:
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _requests(rows: int, gap_s: float) -> List[loadgen.Request]:
    return [
        loadgen.Request(
            row * gap_s, "classify", "default", (row,),
            loadgen.http_request("POST", "/v1/tenants/default/classify", {"features": [float(row)]}),
        )
        for row in range(rows)
    ]


def _drive(respond: Respond, requests: List[loadgen.Request], connections: int) -> loadgen.Phase:
    async def main() -> loadgen.Phase:
        server, port = await _fake_server(respond)
        try:
            return await loadgen.run_phase("127.0.0.1", port, requests, connections)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def test_latency_counts_from_the_due_time_through_a_stall() -> None:
    async def respond(payload: dict) -> dict:
        row = int(payload["features"][0])
        if row == 2:
            await asyncio.sleep(0.4)  # the one stall
        return {"prediction": row}

    phase = _drive(respond, _requests(10, 0.02), connections=1)
    outcomes = phase.outcomes
    assert all(outcome.status == 200 for outcome in outcomes)
    behind = outcomes[3]  # due 20 ms after the stalled request, queued behind it
    assert behind.sent is not None and behind.done is not None
    assert behind.done - behind.sent < 0.2  # the server answered it promptly...
    assert behind.sent - behind.due > 0.25  # ...but it waited for the connection
    assert behind.done - behind.due > 0.25  # and its latency says so
    assert max(o.released - o.due for o in outcomes if o.released is not None) < 0.2
    assert max(count for _, count in phase.backlog) >= 2


def test_checker_catches_one_wrong_label() -> None:
    rows = 12
    reference = [row % 3 for row in range(rows)]

    async def respond(payload: dict) -> dict:
        row = int(payload["features"][0])
        return {"prediction": 99 if row == 5 else reference[row]}

    workload = replace(WORKLOADS["serve_small"], pool_size=rows)
    assert isinstance(workload, ServeWorkload)
    snapshot = Snapshot(
        path=Path("unused.npz"), pool=np.arange(rows, dtype=float)[:, None],
        truth=list(reference), reference=list(reference),
    )
    answers = Answers(workload, ServeInputs(snapshots={"default": [snapshot]}))
    phase = _drive(respond, _requests(rows, 0.005), connections=2)
    scored = score(phase, answers, limit_ms=1000.0)
    assert answers.mismatches == 1
    assert scored.within_limit == rows - 1
    assert scored.true_rows == rows - 1


def test_failures_are_counted_by_code() -> None:
    unanswered = loadgen.Outcome(_requests(1, 0.0)[0])
    refused = loadgen.Outcome(_requests(1, 0.0)[0], done=1.0, status=503,
                              body=b'{"error": {"code": "queue_full", "message": "full"}}')
    answered = loadgen.Outcome(_requests(1, 0.0)[0], done=1.0, status=200)
    assert loadgen.failures([unanswered, refused, answered]) == {"cut_off": 1, "queue_full": 1}

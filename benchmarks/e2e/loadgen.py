"""Open-loop HTTP load generator: asyncio, at most ``CONNECTIONS`` keep-alive connections.

A phase is a list of requests, each with a due time (seconds after the
phase starts).  A scheduler task releases every request at its due time
into one queue, whether or not earlier requests have finished; sender tasks,
one per connection, take requests from the queue and send them.  Every
request is timed from its **due** time to the last byte of its response, so
a stall delays, and is charged to, every request that falls due behind it.
The generator also records how late it released requests (``lag``), how
long released requests waited for a free connection (``send_wait``) and
the backlog (released but unsent requests) at every release.

Response bodies are kept raw and parsed after the phase, off the timed path.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Seconds a phase waits after its last due time for outstanding responses;
#: requests still unanswered then count as cut off.  Long enough for a SUT
#: that fell behind in a slow spell of the host to answer its whole backlog
#: (late answers miss the latency limit, they do not fail), so only a SUT
#: that stopped answering leaves requests cut off.
DRAIN_S = 30.0


@dataclass(frozen=True)
class Request:
    """One scheduled HTTP request and what its answer is checked against."""

    due_s: float
    kind: str  # "classify" | "swap"
    tenant: str
    rows: Tuple[int, ...]  # indices into the tenant's query pool
    wire: bytes = field(repr=False)
    measured: bool = True
    version: int = 0  # the snapshot version a swap installs


@dataclass
class Outcome:
    """What happened to one request (monotonic seconds; ``None`` = never happened)."""

    request: Request
    due: float = 0.0
    released: Optional[float] = None
    sent: Optional[float] = None
    done: Optional[float] = None
    status: int = 0
    body: bytes = b""


@dataclass
class Phase:
    """The outcomes of one load phase plus the generator's own measurements."""

    start: float
    end: float  # due time of the last request
    cutoff: float  # when still unanswered requests were given up
    outcomes: List[Outcome]
    backlog: List[Tuple[float, int]]  # (due offset, released-but-unsent count)

    def measured(self) -> List[Outcome]:
        """Outcomes of the requests in the measured part of the phase."""
        return [outcome for outcome in self.outcomes if outcome.request.measured]

    def window(self) -> Tuple[float, float]:
        """Monotonic ``(start, end)`` of the measured part (due times of its requests)."""
        measured = self.measured()
        if not measured:
            return self.start, self.end
        return measured[0].due, self.end


def http_request(method: str, path: str, payload: Optional[dict] = None, keep_alive: bool = True) -> bytes:
    """The wire bytes of one HTTP/1.1 request with a JSON body."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    """Read one HTTP/1.1 response framed by Content-Length; returns ``(status, body)``."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def fetch(host: str, port: int, method: str, path: str, payload: Optional[dict] = None
                ) -> Tuple[int, dict]:
    """One request on a fresh connection; returns ``(status, parsed JSON body)``.

    ``Connection: close`` lets the server finish the connection itself, so
    a SUT stopped right after the answer has no handler left mid-close.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(http_request(method, path, payload, keep_alive=False))
        await writer.drain()
        status, body = await read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()
    return status, json.loads(body) if body else {}


async def run_phase(
    host: str, port: int, requests: Sequence[Request], connections: int, drain_s: float = DRAIN_S
) -> Phase:
    """Drive ``requests`` open-loop over ``connections`` fresh keep-alive connections."""
    loop = asyncio.get_running_loop()
    streams = [await asyncio.open_connection(host, port) for _ in range(connections)]
    queue: "asyncio.Queue[Optional[Outcome]]" = asyncio.Queue()
    outcomes = [Outcome(request) for request in requests]
    backlog: List[Tuple[float, int]] = []
    start = loop.time() + 0.01

    async def release() -> None:
        for outcome in outcomes:
            outcome.due = start + outcome.request.due_s
            delay = outcome.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome.released = loop.time()
            backlog.append((outcome.request.due_s, queue.qsize()))
            queue.put_nowait(outcome)
        for _ in streams:
            queue.put_nowait(None)

    async def send(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        while True:
            outcome = await queue.get()
            if outcome is None:
                return
            outcome.sent = loop.time()
            writer.write(outcome.request.wire)
            outcome.status, outcome.body = await read_response(reader)
            outcome.done = loop.time()

    releaser = asyncio.ensure_future(release())
    senders = [asyncio.ensure_future(send(reader, writer)) for reader, writer in streams]
    await releaser
    last_due = outcomes[-1].due if outcomes else loop.time()
    _, pending = await asyncio.wait(senders, timeout=max(0.0, last_due + drain_s - loop.time()))
    if pending:
        # Cut off: drop the requests not sent yet, let the ones in flight
        # finish (a request abandoned mid-flight would leave the server
        # writing to a closed socket), and only then give up on a sender.
        while not queue.empty():
            queue.get_nowait()
        for _ in pending:
            queue.put_nowait(None)
        _, pending = await asyncio.wait(pending, timeout=drain_s)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
    for task in senders:
        if not task.cancelled():
            task.result()  # a transport error is a benchmark failure, not a slow answer
    for _, writer in streams:
        writer.close()
    await asyncio.gather(*(writer.wait_closed() for _, writer in streams), return_exceptions=True)
    return Phase(start, last_due, last_due + drain_s, outcomes, backlog)


def answers(outcome: Outcome) -> Optional[List[object]]:
    """The labels a 200 classify response carries (``None`` for anything else)."""
    if outcome.status != 200 or outcome.request.kind != "classify":
        return None
    document = json.loads(outcome.body)
    if "predictions" in document:
        return list(document["predictions"])
    return [document["prediction"]]


def error_code(outcome: Outcome) -> str:
    """Stable code of a failed request: the envelope's code, or why it has none."""
    if outcome.done is None:
        return "cut_off" if outcome.sent is None else "no_response"
    try:
        return str(json.loads(outcome.body)["error"]["code"])
    except (ValueError, KeyError, TypeError):
        return f"http_{outcome.status}"


def failures(outcomes: Sequence[Outcome]) -> Dict[str, int]:
    """Count of non-200 outcomes by error code."""
    counts: Dict[str, int] = {}
    for outcome in outcomes:
        if outcome.status != 200:
            code = error_code(outcome)
            counts[code] = counts.get(code, 0) + 1
    return counts

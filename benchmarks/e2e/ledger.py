"""Per-layer ledger: every layer metric of ``BENCHMARK.json`` from one traced run.

Inputs are the spans of :mod:`spans` -- from the SUT process, and for engine
workloads from the in-process replay of the logged rounds -- plus the load
generator's own measurements.  Serving-layer metrics count only spans that
start inside the measured window of a nominal slot.  A layer that did no
work on a workload reports 0 for every metric (``driver.calls`` is 0 on
``serve_small``, which never reaches the anytime driver).

Definitions worth stating:

* ``driver.share`` is the driver's *self* time -- driver spans minus the
  density-kernel spans inside them -- over the compute it is part of: the
  replayed engine rounds, the registry rounds, or the stream run.
* ``*.share_of_driver`` is a part's time over the driver's total time.
* ``engine.overhead_ms`` is the median over rounds of (served round time -
  replayed in-process compute time): IPC and scatter/gather net of
  parallelism.  Negative means the shard pool beats in-process serving.
* ``client.wait_ms`` and ``http.overhead_ms`` are differences of medians
  (client span minus backend round; loadgen write-to-read minus client span).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import measure
from loadgen import Phase

SpanDoc = Dict[str, Any]
#: Measured ``(start, end)`` windows; ``None`` keeps every span.
Windows = Optional[Sequence[Tuple[float, float]]]

#: Client rejection codes reported as ``client.rejected.<code>``.
REJECTION_CODES = ("queue_full", "quota_exceeded", "deadline_exceeded")


def _duration(span: SpanDoc) -> float:
    return float(span["end"] - span["start"])


def named(spans: Sequence[SpanDoc], name: str, windows: Windows = None) -> List[SpanDoc]:
    """Spans called ``name`` that start inside one of ``windows``."""
    return [
        span for span in spans
        if span["name"] == name
        and (windows is None or any(start <= span["start"] < end for start, end in windows))
    ]


def _attr(span: SpanDoc, key: str, default: Any = None) -> Any:
    return (span.get("attrs") or {}).get(key, default)


def _ms(values: Sequence[float]) -> List[float]:
    return [value * 1e3 for value in values]


def _tail_ms(spans: Sequence[SpanDoc]) -> float:
    return measure.tail(_ms([_duration(s) for s in spans]))[1] if spans else 0.0


def _p50_ms(spans: Sequence[SpanDoc]) -> float:
    return measure.median(_ms([_duration(s) for s in spans]))


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def core_metrics(spans: Sequence[SpanDoc], compute_s: float, windows: Windows = None) -> Dict[str, float]:
    """Driver, full refinement, descent, frontier and kernel metrics."""
    drivers = named(spans, "driver", windows)
    driver_ids = {span["id"] for span in drivers}
    parents = {span["id"]: span["parent"] for span in spans}

    def in_driver(span: SpanDoc) -> bool:
        parent = span["parent"]
        while parent is not None:
            if parent in driver_ids:
                return True
            parent = parents.get(parent)
        return False

    def parts(name: str) -> List[SpanDoc]:
        return [span for span in named(spans, name, windows) if in_driver(span)]

    kernels, descents, refines = parts("kernel"), parts("descent.choose"), parts("frontier.refine_item")
    driver_s = sum(_duration(s) for s in drivers)
    kernel_s = sum(_duration(s) for s in kernels)
    node_reads = sum(int(_attr(s, "node_reads", 0)) for s in drivers)
    full = [s for s in named(spans, "full", windows) if not _attr(s, "budgeted", False)]
    return {
        "driver.calls": float(len(drivers)),
        "driver.node_reads": float(node_reads),
        "driver.us_per_node_read": _ratio(driver_s * 1e6, node_reads),
        "driver.share": _ratio(driver_s - kernel_s, compute_s),
        "full.calls": float(len(full)),
        "full.us_per_query": _ratio(
            sum(_duration(s) for s in full) * 1e6, sum(int(_attr(s, "rows", 0)) for s in full)
        ),
        "descent.calls_per_node_read": _ratio(len(descents), node_reads),
        "descent.share_of_driver": _ratio(sum(_duration(s) for s in descents), driver_s),
        "frontier.calls_per_node_read": _ratio(len(refines), node_reads),
        "frontier.share_of_driver": _ratio(sum(_duration(s) for s in refines), driver_s),
        "kernel.calls_per_node_read": _ratio(len(kernels), node_reads),
        "kernel.rows_per_call": _mean([float(_attr(s, "rows", 0)) for s in kernels]),
        "kernel.share_of_driver": _ratio(kernel_s, driver_s),
    }


def training_metrics(spans: Sequence[SpanDoc], wall_s: float) -> Dict[str, float]:
    """Insertion, decay-clock and publish metrics of the stream job.

    Decay counts the clock advances the stream makes once per chunk (where
    aging and expiry happen), not the no-op advances inside ``partial_fit``.
    """
    inserts = named(spans, "insert")
    insert_ids = {span["id"] for span in inserts}
    decays = [span for span in named(spans, "decay") if span["parent"] not in insert_ids]
    insert_s = sum(_duration(s) for s in inserts)
    decay_s = sum(_duration(s) for s in decays)
    return {
        "insert.calls": float(len(inserts)),
        "insert.us_per_object": _ratio(insert_s * 1e6, len(inserts)),
        "insert.share": _ratio(insert_s, wall_s),
        "decay.calls": float(len(decays)),
        "decay.us_per_call": _ratio(decay_s * 1e6, len(decays)),
        "decay.share": _ratio(decay_s, wall_s),
        "publish.compile_ms": _p50_ms(named(spans, "publish.compile")),
        "publish.save_ms": _p50_ms(named(spans, "publish.save")),
    }


def serving_metrics(
    spans: Sequence[SpanDoc],
    phases: Sequence[Phase],
    replay: Optional[Dict[int, float]] = None,
) -> Dict[str, float]:
    """Load generator, HTTP, client, admission, engine, registry and shm metrics.

    ``phases`` are the nominal slots; ``replay`` maps an engine round's span
    id to its in-process compute time.
    """
    windows = [phase.window() for phase in phases]
    clients = named(spans, "client.classify", windows) + named(spans, "client.classify_batch", windows)
    engine = named(spans, "engine.round", windows)
    registry = named(spans, "registry.round", windows)
    takes = [s for s in named(spans, "admission.take", windows) if _attr(s, "taken", 0)]
    enqueues = named(spans, "admission.enqueue", windows)
    measured = [outcome for phase in phases for outcome in phase.measured()]
    answered = [o for o in measured if o.status == 200 and o.request.kind == "classify"]
    lag = _ms([o.released - o.due for o in measured if o.released is not None])
    send_wait = _ms([o.sent - o.due for o in measured if o.sent is not None])
    backlog = [
        count for phase in phases
        for offset, count in phase.backlog
        if offset >= min((o.request.due_s for o in phase.measured()), default=0.0)
    ]
    metrics: Dict[str, float] = {
        "loadgen.lag_p99_ms": measure.tail(lag)[1] if lag else 0.0,
        "loadgen.send_wait_p99_ms": measure.tail(send_wait)[1] if send_wait else 0.0,
        "loadgen.backlog_max": float(max(backlog, default=0)),
        "http.overhead_ms": measure.median(
            _ms([o.done - o.sent for o in answered if o.done is not None and o.sent is not None])
        ) - _p50_ms(clients) if clients else 0.0,
        "client.span_p50_ms": _p50_ms(clients),
        "client.span_p99_ms": _tail_ms(clients),
        "client.wait_ms": _p50_ms(clients) - _p50_ms(engine or registry) if clients else 0.0,
        **{
            f"client.rejected.{code}": float(sum(1 for s in clients if _attr(s, "error") == code))
            for code in REJECTION_CODES
        },
        "admission.enqueue_us": _mean([_duration(s) * 1e6 for s in enqueues]),
        "admission.take_us": _mean([_duration(s) * 1e6 for s in takes]),
        "admission.requests_per_take": _mean([float(_attr(s, "taken")) for s in takes]),
    }
    compute = {s["id"]: replay[s["id"]] for s in engine if replay and s["id"] in replay}
    metrics.update({
        "engine.rounds": float(len(engine)),
        "engine.queries_per_round": _mean([float(_attr(s, "rows", 0)) for s in engine]),
        "engine.round_p50_ms": _p50_ms(engine),
        "engine.round_p99_ms": _tail_ms(engine),
        "engine.busy_share": _ratio(
            sum(_duration(s) for s in engine), sum(end - start for start, end in windows)
        ),
        "engine.compute_ms": measure.median(_ms(list(compute.values()))),
        "engine.overhead_ms": measure.median(
            _ms([_duration(s) - compute[s["id"]] for s in engine if s["id"] in compute])
        ),
    })
    before = [s for s in named(spans, "registry.round") if s["end"] < windows[0][0]]
    cold = [s for s in registry if _attr(s, "cold", False)]
    evictions_before = max((int(_attr(s, "evictions", 0)) for s in before), default=0)
    evictions_after = max((int(_attr(s, "evictions", 0)) for s in registry), default=evictions_before)
    stores = named(spans, "shm.publish")
    metrics.update({
        "registry.round_p50_ms": _p50_ms(registry),
        "registry.round_p99_ms": _tail_ms(registry),
        "registry.hit_ratio": 1.0 - _ratio(len(cold), len(registry)) if registry else 0.0,
        "registry.cold_loads": float(len(cold)),
        "registry.cold_load_ms": measure.median(
            [float(_attr(s, "cold_load_ms")) for s in cold if _attr(s, "cold_load_ms") is not None]
        ),
        "registry.evictions": float(evictions_after - evictions_before),
        "registry.swap_ms": _p50_ms(named(spans, "registry.load", windows)),
        "shm.publish_ms": _p50_ms(stores),
        "shm.bytes": measure.median([float(_attr(s, "bytes", 0)) for s in stores]),
    })
    return metrics

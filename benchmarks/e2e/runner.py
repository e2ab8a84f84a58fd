"""One benchmark run of one workload: inputs, SUT lifecycle, load phases, metrics.

An untraced run measures the gated end-to-end metrics and the reported
timings (``workloads.REPORTED``); a traced run measures the per-layer
ledger instead (and the tracing overhead against an untraced pass of the
same seed).  Both check every answer against the references.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Set, Tuple

import ledger
import loadgen
import measure
import spans
from inputs import ServeInputs, build_serve_inputs, build_stream_inputs, schedule, tenant_names
from sut import SutProcess, pss_mb, publish, stream_job, timed_stream
from workloads import (
    CONNECTIONS,
    PROBE_WARMUP_S,
    PROBES,
    SETUP_REPEATS,
    SLOT_WARMUP_S,
    SLOTS,
    SUT_WARMUP_S,
    PhasePlan,
    ServeWorkload,
    StreamWorkload,
    Workload,
    phase_plan,
)

from repro.persist import load_flat_forest

ROOT = Path(__file__).resolve().parents[2]
#: Scratch space inside the checkout.  A run's snapshots and SUT specs leave
#: with it; span files of traced runs are kept in ``spans/``.
WORK = Path(__file__).resolve().parent / ".work"
HOST = "127.0.0.1"
#: Seconds allowed for a SUT to come up, and for the stream job to finish.
SETUP_TIMEOUT_S = 120.0
STREAM_TIMEOUT_S = 170.0


@dataclass
class RunResult:
    """Everything one run reports."""

    workload: str
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    reported: Dict[str, float] = field(default_factory=dict)  # ungated timings
    notes: List[str] = field(default_factory=list)

    def count(self, outcomes: Sequence[loadgen.Outcome], probe: bool) -> None:
        """Count attempted requests and failures.

        In a probe, requests the generator cut off are the search's doing,
        not failures; every other non-200 outcome is one.  A nominal slot
        waits ``loadgen.DRAIN_S`` for its answers, so a late answer there
        misses the latency limit but does not fail.
        """
        self.attempted += len(outcomes)
        for code, number in loadgen.failures(outcomes).items():
            if not (probe and code in ("cut_off", "no_response")):
                self.failed += number
                self.failures[code] = self.failures.get(code, 0) + number


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    """Run ``workload`` once in a private work directory that is removed afterwards."""
    work = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if isinstance(workload, StreamWorkload):
            return _run_stream(workload, seed, trace, work)
        return asyncio.run(_run_serve(workload, seed, seconds, trace, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _spans_path(workload: Workload, seed: int, role: str) -> Path:
    directory = WORK / "spans"
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{workload.name}-s{seed}.{role}.jsonl"


def _write_spec(work: Path, name: str, spec: Dict[str, Any]) -> Path:
    path = work / f"{name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"src": str(ROOT / "src"), **spec}, handle)
    return path


# -- serving workloads --------------------------------------------------------------------------
class Answers:
    """Checks served labels against the references, across ``t0``'s swaps."""

    def __init__(self, workload: ServeWorkload, inputs: ServeInputs) -> None:
        self.inputs = inputs
        self.swapped = tenant_names(workload)[0] if workload.swaps else None
        self.swaps: List[Tuple[float, float, int]] = []  # (sent, done, version installed)
        self.mismatches = 0
        self.rows = 0

    def note_swaps(self, outcomes: Sequence[loadgen.Outcome]) -> None:
        """Record a phase's completed swaps; call before checking its answers."""
        for outcome in outcomes:
            if outcome.request.kind == "swap" and outcome.sent is not None and outcome.done is not None:
                self.swaps.append((outcome.sent, outcome.done, outcome.request.version))

    def versions(self, tenant: str, sent: float, done: float) -> Set[int]:
        """Snapshot versions that may have answered a request in flight over ``[sent, done]``."""
        if tenant != self.swapped:
            return {0}
        applied = [swap for swap in self.swaps if swap[1] < sent]
        possible = {max(applied, key=lambda swap: swap[1])[2] if applied else 0}
        possible.update(version for start, end, version in self.swaps if start < done and end > sent)
        return possible

    def check(self, outcome: loadgen.Outcome) -> Tuple[bool, int]:
        """``(every label matches a reference, labels equal to the true class)``."""
        labels = loadgen.answers(outcome)
        if labels is None or outcome.sent is None or outcome.done is None:
            return False, 0
        request = outcome.request
        snapshots = self.inputs.snapshots[request.tenant]
        allowed = self.versions(request.tenant, outcome.sent, outcome.done)
        ok = len(labels) == len(request.rows)
        true = 0
        for label, row in zip(labels, request.rows):
            ok = ok and label in {snapshots[version].reference[row] for version in allowed}
            true += int(label == snapshots[0].truth[row])
        self.rows += len(request.rows)
        self.mismatches += int(not ok)
        return ok, true


@dataclass
class Scored:
    """Latency, completion and accuracy of the measured classify requests of phases."""

    latencies_ms: List[float] = field(default_factory=list)
    within_limit: int = 0
    rows: int = 0  # rows of the answered requests
    true_rows: int = 0  # answered rows equal to the true class

    @property
    def completion(self) -> float:
        return self.within_limit / len(self.latencies_ms) if self.latencies_ms else 0.0

    def add(self, other: "Scored") -> None:
        """Pool ``other`` into this score."""
        self.latencies_ms += other.latencies_ms
        self.within_limit += other.within_limit
        self.rows += other.rows
        self.true_rows += other.true_rows


def score(phase: loadgen.Phase, answers: Answers, limit_ms: float) -> Scored:
    """Check every measured answer; a request answered wrong, late or never misses the limit."""
    scored = Scored()
    measured = [o for o in phase.measured() if o.request.kind == "classify"]
    for outcome in measured:
        # An unanswered request gets a lower bound: due time to the cut-off.
        done = outcome.done if outcome.done is not None else phase.cutoff
        latency_ms = 1e3 * (done - outcome.due)
        scored.latencies_ms.append(latency_ms)
        if outcome.status != 200:
            continue
        ok, true = answers.check(outcome)
        scored.within_limit += int(ok and latency_ms <= limit_ms)
        scored.rows += len(outcome.request.rows)
        scored.true_rows += true
    return scored


def backlog_grew(phase: loadgen.Phase, slack: float) -> bool:
    """Whether the median backlog over the last fifth of the measured part exceeds
    the median around its midpoint by more than ``slack`` requests."""
    measured = phase.measured()
    if not measured or not phase.backlog:
        return False
    first = measured[0].request.due_s
    length = max(phase.backlog[-1][0] - first, 1e-9)
    middle = [n for offset, n in phase.backlog if 0.4 <= (offset - first) / length <= 0.6]
    end = [n for offset, n in phase.backlog if (offset - first) / length >= 0.8]
    return measure.median(end) > measure.median(middle) + slack


async def _spawn(spec_path: Path) -> Tuple[SutProcess, int, float]:
    """Start a serving SUT; returns it, its port and the time to its first healthy answer."""
    sut = SutProcess(spec_path)
    try:
        port = int(await asyncio.get_running_loop().run_in_executor(
            None, sut.expect, "READY", SETUP_TIMEOUT_S
        ))
        status, _ = await loadgen.fetch(HOST, port, "GET", "/healthz")
    except BaseException:
        sut.stop()
        raise
    if status != 200:
        sut.stop()
        raise RuntimeError(f"/healthz answered {status}")
    return sut, port, time.monotonic() - sut.started


def _stop(sut: SutProcess) -> None:
    code = sut.stop()
    if code != 0:
        raise RuntimeError(f"SUT exited with code {code}")


async def _prime(workload: ServeWorkload, port: int) -> None:
    """Load the registry's tenants, least popular first, so the popular ones stay resident."""
    if workload.backend != "registry":
        return
    for tenant in reversed(tenant_names(workload)):
        status, document = await loadgen.fetch(HOST, port, "POST", "/v1/registry/load", {"tenant": tenant})
        if status != 200:
            raise RuntimeError(f"loading tenant {tenant} failed: {document}")


class Nominal:
    """The nominal phase of one SUT, run as ``SLOTS`` slots; each slot is scored apart."""

    def __init__(
        self, workload: ServeWorkload, inputs: ServeInputs, seed: int, plan: PhasePlan,
        port: int, answers: Answers, result: RunResult,
    ) -> None:
        self.workload, self.inputs, self.seed, self.plan = workload, inputs, seed, plan
        self.port, self.answers, self.result = port, answers, result
        self.phases: List[loadgen.Phase] = []
        self.scores: List[Scored] = []
        answers.swaps.clear()  # a fresh SUT serves every tenant's first version

    @property
    def done(self) -> bool:
        return len(self.phases) == SLOTS

    async def run_slot(self) -> None:
        """One slot's load; ``t0`` swaps to its other snapshot halfway through."""
        index = len(self.phases)
        requests = schedule(
            self.workload, self.inputs, self.workload.rate_rps,
            SLOT_WARMUP_S if index else SUT_WARMUP_S, self.plan.slot_s,
            (self.seed, 0, index), (index + 1) % 2 if self.workload.swaps else None,
        )
        phase = await loadgen.run_phase(HOST, self.port, requests, CONNECTIONS)
        self.answers.note_swaps(phase.outcomes)
        self.result.count(phase.outcomes, probe=False)
        self.phases.append(phase)
        self.scores.append(score(phase, self.answers, self.workload.limit_ms))

    def pooled(self) -> Scored:
        total = Scored()
        for scored in self.scores:
            total.add(scored)
        return total

    def p50_ms(self) -> float:
        """Median over the slots of each slot's median latency."""
        return measure.median([measure.median(scored.latencies_ms) for scored in self.scores])


async def _run_serve(
    workload: ServeWorkload, seed: int, seconds: float, trace: bool, work: Path
) -> RunResult:
    inputs = build_serve_inputs(workload, work)
    answers = Answers(workload, inputs)
    result = RunResult(workload.name)
    spec: Dict[str, Any] = {"kind": workload.backend, "trace": False}
    if workload.backend == "engine":
        spec["snapshot"] = str(inputs.snapshots["default"][0].path)
    else:
        spec["capacity"] = workload.registry_capacity
        spec["tenants"] = {tenant: str(versions[0].path) for tenant, versions in inputs.snapshots.items()}
    if trace:
        await _trace_serve(workload, inputs, seed, seconds, work, spec, answers, result)
    else:
        await _measure_serve(workload, inputs, seed, seconds, work, spec, answers, result)
    result.correct = answers.mismatches == 0
    result.notes.append(f"answers checked: {answers.rows} rows, {answers.mismatches} wrong requests")
    return result


async def _measure_serve(
    workload: ServeWorkload, inputs: ServeInputs, seed: int, seconds: float, work: Path,
    spec: Dict[str, Any], answers: Answers, result: RunResult,
) -> None:
    plan = phase_plan(seconds, workload)
    spec_path = _write_spec(work, "sut", spec)
    sut, port, setup_s = await _spawn(spec_path)
    setups: List[float] = [setup_s]
    probes: List[str] = []
    state: Dict[str, Any] = {}  # the SUT's PSS and registry counters after the last slot
    nominal = Nominal(workload, inputs, seed, plan, port, answers, result)

    async def next_slot() -> None:
        if nominal.phases:
            extra, _, extra_setup_s = await _spawn(spec_path)
            _stop(extra)
            setups.append(extra_setup_s)
        await nominal.run_slot()
        if nominal.done:
            state["mem_mb"] = pss_mb(sut.process.pid)
            if workload.backend == "registry":
                _, state["registry"] = await loadgen.fetch(HOST, port, "GET", "/v1/registry")

    async def probe(rate: float) -> bool:
        if not nominal.done:
            await next_slot()
        requests = schedule(workload, inputs, rate, PROBE_WARMUP_S, plan.probe_s, (seed, 1, len(probes)))
        # Waiting past twice the limit cannot change a probe's verdict.
        drain_s = max(0.25, 2e-3 * workload.limit_ms)
        phase = await loadgen.run_phase(HOST, port, requests, CONNECTIONS, drain_s)
        result.count(phase.outcomes, probe=True)
        scored = score(phase, answers, workload.limit_ms)
        pct, tail_ms = measure.tail(scored.latencies_ms)
        # Growth the latency limit can absorb is queue jitter, not overload.
        grew = backlog_grew(phase, slack=max(1.0, rate * workload.limit_ms / 1e3))
        passed = tail_ms <= workload.limit_ms and scored.completion >= 0.99 and not grew
        probes.append(
            f"{rate:.1f} req/s: p{pct:.1f} {tail_ms:.1f} ms, completion {scored.completion:.3f}"
            f"{', backlog grew' if grew else ''} -> {'pass' if passed else 'fail'}"
        )
        return passed

    rate, verified = 0.0, False
    try:
        await _prime(workload, port)
        if workload.search_rps is not None:
            rate, verified = await measure.bisect_rate(probe, *workload.search_rps, PROBES)
        while not nominal.done:
            await next_slot()
    finally:
        _stop(sut)
    pooled = nominal.pooled()
    pct, tail_ms = measure.tail(pooled.latencies_ms)
    result.metrics = {
        "setup_s": measure.median(setups),
        "completion": pooled.completion,
        # Served rows equal to the true class: the served model's accuracy.
        "prequential_accuracy": pooled.true_rows / max(pooled.rows, 1),
        "mem_mb": state["mem_mb"],
    }
    result.reported = {"p50_ms": nominal.p50_ms(), "p99_ms": tail_ms}
    if workload.search_rps is not None:
        result.reported["sustainable_qps"] = rate * workload.rows
    lag = [1e3 * (o.released - o.due) for p in nominal.phases for o in p.measured() if o.released is not None]
    lag_pct, lag_ms = measure.tail(lag)
    slot_p50 = [measure.median(scored.latencies_ms) for scored in nominal.scores]
    result.notes += [
        "setup: " + ", ".join(f"{value:.3f}" for value in setups) + " s",
        f"nominal: {len(pooled.latencies_ms)} requests at {workload.rate_rps:g} req/s x "
        f"{workload.rows} rows in {SLOTS} slots; slot p50 "
        + ", ".join(f"{value:.2f}" for value in slot_p50)
        + f" ms; tail p{pct:g}",
        f"loadgen lag p{lag_pct:g}: {lag_ms:.2f} ms" + (" (INVALID: above 10 ms)" if lag_ms > 10 else ""),
        *(f"probe {line}" for line in probes),
    ]
    if workload.search_rps is not None:
        result.notes.append(
            f"sustainable: {rate:.1f} req/s" + ("" if verified else " (no probe passed: range floor)")
        )
    if "registry" in state:
        counters = state["registry"]["counters"]
        result.notes.append(
            "registry: " + ", ".join(f"{key} {counters[key]}" for key in ("loads", "reloads", "evictions", "swaps"))
            + " (reloads are cold loads)"
        )


def _replay(
    rounds_path: Path, snapshot: Path, round_ids: Set[int], spans_out: Path
) -> Tuple[Dict[int, float], List[Dict[str, Any]], float]:
    """Replay logged engine rounds in-process: untraced for the compute time per round,
    then traced for the driver breakdown.  Returns ``(compute by round, spans, traced compute)``."""
    forest = load_flat_forest(snapshot)
    rounds = [entry for entry in spans.load_rounds(rounds_path) if entry[0] in round_ids]

    def serve(queries: Any, budgets: Any) -> None:
        if budgets is None:
            forest.predict_batch(queries)
        else:
            forest.classify_anytime_batch(queries, max_nodes=budgets, record_history=False)

    compute: Dict[int, float] = {}
    for round_id, queries, budgets in rounds:
        start = time.perf_counter()
        serve(queries, budgets)
        compute[round_id] = time.perf_counter() - start
    tracer = spans.Tracer()
    patches = spans.install_core(tracer)
    start = time.perf_counter()
    try:
        for _, queries, budgets in rounds:
            serve(queries, budgets)
    finally:
        patches.restore()
    traced_s = time.perf_counter() - start
    tracer.write(spans_out)
    return compute, spans.read_spans(spans_out), traced_s


async def _trace_serve(
    workload: ServeWorkload, inputs: ServeInputs, seed: int, seconds: float, work: Path,
    spec: Dict[str, Any], answers: Answers, result: RunResult,
) -> None:
    """The nominal slots on an untraced SUT, then on a traced one (same seed)."""
    untraced = _write_spec(work, "sut", spec)
    sut_spans = _spans_path(workload, seed, "sut")
    rounds_path = work / "rounds.npz"
    traced = _write_spec(
        work, "sut-traced", {**spec, "trace": True, "spans": str(sut_spans), "rounds": str(rounds_path)}
    )
    p50: List[float] = []
    for spec_path in (untraced, traced):
        sut, port, _ = await _spawn(spec_path)
        nominal = Nominal(workload, inputs, seed, phase_plan(seconds, workload), port, answers, result)
        try:
            await _prime(workload, port)
            while not nominal.done:
                await nominal.run_slot()
        finally:
            _stop(sut)
        p50.append(nominal.p50_ms())
    documents = spans.read_spans(sut_spans)
    windows = [phase.window() for phase in nominal.phases]
    if workload.backend == "engine":
        round_ids = {s["id"] for s in ledger.named(documents, "engine.round", windows)}
        compute, replayed, traced_s = _replay(
            rounds_path, Path(spec["snapshot"]), round_ids, _spans_path(workload, seed, "replay")
        )
        metrics = ledger.serving_metrics(documents, nominal.phases, compute)
        metrics.update(ledger.core_metrics(replayed, traced_s))
    else:
        registry_s = sum(s["end"] - s["start"] for s in ledger.named(documents, "registry.round", windows))
        metrics = ledger.serving_metrics(documents, nominal.phases)
        metrics.update(ledger.core_metrics(documents, registry_s, windows))
    metrics["trace.overhead"] = p50[1] / p50[0] - 1.0 if p50[0] else 0.0
    result.metrics = metrics
    result.notes.append(
        f"tracing overhead: p50 {p50[0]:.2f} ms untraced -> {p50[1]:.2f} ms traced (same seed)"
    )


# -- the stream workload ------------------------------------------------------------------------
def _run_stream(workload: StreamWorkload, seed: int, trace: bool, work: Path) -> RunResult:
    """The stream job in the SUT, then again in this process as the reference.

    Every prediction of the SUT must equal the reference's.  The SUT's pass
    is the one timed.  Both passes end with the same publishes; the five of
    a pass run back to back and share the host's speed of the moment, so
    ``publish_ms`` is the fastest of all ten.
    """
    result = RunResult(workload.name, attempted=workload.objects)
    out = work / "stream-result.json"
    spec: Dict[str, Any] = {
        "kind": "stream",
        "dataset": str(build_stream_inputs(workload, work)),
        "warm_fit": workload.warm_fit,
        "decay_rate": workload.decay_rate,
        "expiry_threshold": workload.expiry_threshold,
        "n_classes": workload.n_classes,
        "nodes_per_time_unit": workload.nodes_per_time_unit,
        "max_budget": workload.max_budget,
        "chunk_size": workload.chunk_size,
        "seed": seed,
        "publishes": workload.publishes,
        "out": str(out),
        "trace": trace,
        "spans": str(_spans_path(workload, seed, "sut")),
        "setup_only": False,
    }
    setups: List[float] = []
    if not trace:
        setup_spec = _write_spec(work, "setup", {**spec, "setup_only": True})
        for _ in range(SETUP_REPEATS - 1):
            sut = SutProcess(setup_spec)
            sut.expect("READY", SETUP_TIMEOUT_S)
            setups.append(time.monotonic() - sut.started)
            _stop(sut)
    sut = SutProcess(_write_spec(work, "sut", spec))
    try:
        sut.expect("READY", SETUP_TIMEOUT_S)
        setups.append(time.monotonic() - sut.started)
        sut.expect("DONE", STREAM_TIMEOUT_S)
    finally:
        _stop(sut)
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)

    fit, stream = stream_job(spec)
    classifier = fit()
    reference, _, reference_wall_s = timed_stream(classifier, stream, workload.chunk_size)
    reference_publish_s = [publish(classifier, work / "reference.npz") for _ in range(workload.publishes)]
    expected = [int(step.prediction) for step in reference.steps]
    result.correct = (
        len(expected) == workload.objects
        and report["predictions"] == expected
        and report["accuracy"] == reference.accuracy
    )
    result.notes.append(
        f"checked: {len(report['predictions'])} predictions against an in-process replay, "
        f"{sum(p != e for p, e in zip(report['predictions'], expected))} differ"
    )
    if trace:
        identical = report["traced_predictions"] == expected
        result.correct = result.correct and identical
        documents = spans.read_spans(Path(spec["spans"]))
        wall = report["traced_wall_s"]
        result.metrics = {
            **ledger.core_metrics(documents, wall),
            **ledger.training_metrics(documents, wall),
            "trace.overhead": wall / report["wall_s"] - 1.0,
        }
        result.notes.append(
            f"tracing overhead: stream {report['wall_s']:.2f} s untraced -> {wall:.2f} s traced; "
            f"traced predictions identical: {identical}"
        )
        return result
    step_ms = [1e3 * value for value in report["chunk_s"]]
    result.metrics = {
        "setup_s": measure.median(setups),
        # Chunk steps that kept up with the stream: the job's completion.
        "completion": sum(value <= workload.limit_ms for value in step_ms) / len(step_ms),
        "prequential_accuracy": report["accuracy"],
        "mem_mb": report["mem_mb"],
    }
    result.reported = {
        "objects_per_s": workload.objects / report["wall_s"],
        "publish_ms": min(report["publish_s"] + reference_publish_s) * 1e3,
    }
    pct, tail_ms = measure.tail(step_ms)
    result.notes += [
        "setup: " + ", ".join(f"{value:.3f}" for value in setups) + " s",
        "publish: SUT " + ", ".join(f"{value * 1e3:.1f}" for value in report["publish_s"])
        + " ms; reference " + ", ".join(f"{value * 1e3:.1f}" for value in reference_publish_s) + " ms",
        f"stream: {workload.objects} objects in {len(step_ms)} chunks; SUT pass {report['wall_s']:.2f} s, "
        f"reference pass {reference_wall_s:.2f} s",
        f"chunk steps: p50 {measure.median(step_ms):.1f} ms, p{pct:g} {tail_ms:.1f} ms; over "
        f"{workload.limit_ms:g} ms: "
        + ", ".join(f"#{index} {value:.0f} ms" for index, value in enumerate(step_ms) if value > workload.limit_ms),
    ]
    return result

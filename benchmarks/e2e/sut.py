"""The system under test, run in its own process, and the handle that launches it.

``python sut.py SPEC.json`` starts one SUT described by the JSON spec:

* ``kind: "engine"`` / ``"registry"`` -- ``HttpFrontend`` over an
  ``AsyncServingClient`` over a ``ServingEngine(snapshot)`` or a
  ``ModelRegistry(capacity)`` with the spec's tenants registered.  Prints
  ``READY <port>`` once listening and serves until a line arrives on stdin.
* ``kind: "stream"`` -- the test-then-train job: warm-up fit, ``READY``,
  ``run_anytime_stream``, then ``publishes`` x (``compile_flat`` +
  ``save_forest``); writes its results to ``spec["out"]`` and exits.  The
  benchmark runs the same job in its own process as the reference
  (:func:`stream_job`, :func:`timed_stream`, :func:`publish`).

With ``trace`` the SUT installs the span wrappers and writes the spans (and,
for the engine, the round log) when it stops.  The traced stream job first
runs untraced, then replays the stream through the same public calls
``run_anytime_stream`` makes with the wrappers installed and reports the
replay's predictions, which the benchmark compares with the untraced ones.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


def pss_mb(pid: int) -> float:
    """Proportional set size of ``pid`` and all its descendants, in MB (``/proc``)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    total_kb = 0.0
    pending = [pid]
    while pending:
        current = pending.pop()
        pending.extend(children.get(current, []))
        try:
            with open(f"/proc/{current}/smaps_rollup", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += float(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class SutProcess:
    """A running SUT: spawned from a spec file, stopped by a line on its stdin."""

    def __init__(self, spec_path: Path) -> None:
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("sut.py")), str(spec_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def expect(self, word: str, timeout: float) -> str:
        """Wait for the next stdout line starting with ``word``; returns the rest of it."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise TimeoutError(f"SUT did not print {word!r} within {timeout:g} s") from None
            if line is None:
                raise RuntimeError(f"SUT exited with code {self.process.wait()} before {word!r}")
            if line.startswith(word):
                return line[len(word):].strip()

    def stop(self, timeout: float = 60.0) -> int:
        """Ask the SUT to shut down cleanly and wait for it; returns its exit code."""
        if self.process.poll() is None:
            assert self.process.stdin is not None
            try:
                self.process.stdin.write("STOP\n")
                self.process.stdin.close()
            except BrokenPipeError:
                pass
        try:
            code = self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self._reader.join(timeout)
        return code


# -- the SUT side ------------------------------------------------------------------------------
async def _serve(spec: Dict[str, Any]) -> None:
    from repro.serving import AsyncServingClient, HttpFrontend, ModelRegistry, ServingEngine

    tracer = None
    patches = []
    if spec["trace"]:
        import spans  # imports repro: only once main() has put it on the path

        tracer = spans.Tracer()
        patches.append(spans.install_serving(tracer))
        if spec["kind"] == "registry":
            # The registry serves in this process, so its driver is visible here.
            patches.append(spans.install_core(tracer))
    engine: Optional[ServingEngine] = None
    registry: Optional[ModelRegistry] = None
    if spec["kind"] == "engine":
        engine = ServingEngine(spec["snapshot"])
        client = AsyncServingClient(engine)
    else:
        registry = ModelRegistry(capacity=spec["capacity"])
        for tenant, path in spec["tenants"].items():
            registry.register(tenant, path)
        client = AsyncServingClient(registry=registry)
    loop = asyncio.get_running_loop()
    try:
        async with client:
            frontend = HttpFrontend(client)
            await frontend.start()
            print(f"READY {frontend.address[1]}", flush=True)
            await loop.run_in_executor(None, sys.stdin.readline)
            await frontend.aclose()
    finally:
        if engine is not None:
            engine.close()
        if registry is not None:
            registry.close()
    if tracer is not None:
        for patch in patches:
            patch.restore()
        tracer.write(Path(spec["spans"]))
        if engine is not None:
            spans.save_rounds(tracer, Path(spec["rounds"]))


def stream_job(spec: Dict[str, Any]) -> Tuple[Callable[[], Any], Any]:
    """``(fit, stream)`` of the stream job: ``fit()`` returns a freshly warm-fitted
    classifier, ``stream`` the ``DataStream`` it then learns from."""
    import numpy as np

    from repro import AnytimeBayesClassifier
    from repro.data import Dataset
    from repro.evaluation.experiment import DEFAULT_EXPERIMENT_CONFIG
    from repro.stream import DataStream, PoissonArrival

    with np.load(spec["dataset"], allow_pickle=False) as data:
        features, labels = data["features"], data["labels"]
    warm = spec["warm_fit"]
    config = replace(
        DEFAULT_EXPERIMENT_CONFIG,
        decay_rate=spec["decay_rate"],
        expiry_threshold=spec["expiry_threshold"],
    )

    def fit() -> AnytimeBayesClassifier:
        return AnytimeBayesClassifier(config=config).fit(features[:warm], labels[:warm])

    stream = DataStream(
        Dataset(name="drift", features=features[warm:], labels=labels[warm:],
                n_classes=spec["n_classes"]),
        arrival=PoissonArrival(1.0),
        nodes_per_time_unit=spec["nodes_per_time_unit"],
        max_budget=spec["max_budget"],
        shuffle=False,
        random_state=spec["seed"],
    )
    return fit, stream


def publish(classifier: Any, path: Path, tracer: Any = None) -> float:
    """``compile_flat`` + ``save_forest`` of ``classifier`` once; returns the seconds taken.

    With a tracer (``spans.Tracer``) both calls are recorded as spans.
    """
    from repro import save_forest

    start = time.perf_counter()
    if tracer is None:
        classifier.compile_flat()
        save_forest(classifier, path)
    else:
        tracer.call("publish.compile", classifier.compile_flat)
        tracer.call("publish.save", save_forest, classifier, path)
    return time.perf_counter() - start


def timed_stream(classifier: Any, stream: Any, chunk_size: int) -> Tuple[Any, List[float], float]:
    """``run_anytime_stream`` (test-then-train) with one clock read per chunk.

    Returns ``(result, seconds of each chunk's test-then-train step, wall seconds)``.
    """
    from repro.stream import run_anytime_stream

    chunk_starts: List[float] = []
    classify_batch = classifier.classify_anytime_batch

    def marked_classify_batch(*args: Any, **kwargs: Any) -> Any:
        # The one hook of a timed pass: run_anytime_stream classifies each
        # chunk with one call, so a clock read here splits the run into
        # per-chunk test-then-train steps.
        chunk_starts.append(time.perf_counter())
        return classify_batch(*args, **kwargs)

    classifier.classify_anytime_batch = marked_classify_batch
    start = time.perf_counter()
    try:
        result = run_anytime_stream(classifier, stream, online_learning=True, chunk_size=chunk_size)
    finally:
        del classifier.classify_anytime_batch
    wall_s = time.perf_counter() - start
    chunk_s = [end - begin for begin, end in zip(chunk_starts, chunk_starts[1:] + [start + wall_s])]
    return result, chunk_s, wall_s


def _traced_replay(fitted: Callable[[], Any], stream: Any, spec: Dict[str, Any]) -> Dict[str, Any]:
    """The stream again, through the calls ``run_anytime_stream`` makes, with spans."""
    import numpy as np

    import spans  # imports repro: only once main() has put it on the path

    tracer = spans.Tracer()
    classifier = fitted()
    patches = spans.install_core(tracer)
    predictions: List[int] = []
    items = list(stream)
    start = time.perf_counter()
    try:
        for offset in range(0, len(items), spec["chunk_size"]):
            chunk = items[offset: offset + spec["chunk_size"]]
            classifier.advance_time(chunk[-1].arrival_time)
            results = classifier.classify_anytime_batch(
                np.stack([item.features for item in chunk]),
                max_nodes=[item.budget for item in chunk],
                record_history=False,
            )
            predictions.extend(int(item.final_prediction) for item in results)
            for item in chunk:
                classifier.partial_fit(item.features, item.label, timestamp=item.arrival_time)
        wall_s = time.perf_counter() - start
        for _ in range(spec["publishes"]):
            publish(classifier, Path(spec["out"]).with_suffix(".snapshot.npz"), tracer)
    finally:
        patches.restore()
    tracer.write(Path(spec["spans"]))
    return {"traced_wall_s": wall_s, "traced_predictions": predictions}


def _stream(spec: Dict[str, Any]) -> None:
    fitted, stream = stream_job(spec)
    classifier = fitted()
    print("READY", flush=True)
    if spec["setup_only"]:
        return
    result, chunk_s, wall_s = timed_stream(classifier, stream, spec["chunk_size"])
    report: Dict[str, Any] = {
        "predictions": [int(step.prediction) for step in result.steps],
        "accuracy": result.accuracy,
        "wall_s": wall_s,
        "chunk_s": chunk_s,
        "mem_mb": pss_mb(os.getpid()),
    }
    snapshot = Path(spec["out"]).with_suffix(".snapshot.npz")
    report["publish_s"] = [publish(classifier, snapshot) for _ in range(spec["publishes"])]
    if spec["trace"]:
        report.update(_traced_replay(fitted, stream, spec))
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    print("DONE", flush=True)


def main(argv: List[str]) -> int:
    """SUT entry point: ``sut.py SPEC.json``."""
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    if spec["kind"] == "stream":
        _stream(spec)
    else:
        asyncio.run(_serve(spec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

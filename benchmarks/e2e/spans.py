"""In-memory span recording around the public entry points of each layer.

The traced run installs these wrappers at class or module level, from the
benchmark's own files: nothing inside ``src/repro`` is instrumented.  A span
records its name, start, end (monotonic seconds, comparable across the
processes of one host) and its parent: the span enclosing it in the same
thread, or in the same asyncio task.  Spans stay in memory and are written
as JSON lines when the run ends.

Two groups of wrappers exist:

* :func:`install_serving` -- the async client, DRR admission, engine and
  registry rounds and shared-memory publication.  Engine rounds are also
  logged (rows and budgets), because the engine's anytime driver runs in
  shard processes no wrapper can see; the benchmark replays the logged
  rounds in-process with :func:`install_core` installed.
* :func:`install_core` -- the anytime driver, full refinement, descent
  choice, frontier refinement, the density kernels as bound in
  ``repro.core.frontier``, insertion and the decay clock.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.core.frontier as frontier_module
from repro.core import AnytimeBayesClassifier, DescentStrategy, FlatForest, Frontier
from repro.serving import (
    AsyncServingClient,
    DeficitRoundRobin,
    ModelRegistry,
    ServingEngine,
    ServingError,
    SharedColumnStore,
)

#: ``(id, parent id, name, start, end, attributes)``.
Span = Tuple[int, Optional[int], str, float, float, Optional[Dict[str, Any]]]

AttrsFn = Callable[[Any, tuple, dict, Any], Optional[Dict[str, Any]]]


class Tracer:
    """Collects spans; the parent of a span is the one open in its thread or task."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Engine rounds as ``(span id, queries, per-query budgets or None)``.
        self.rounds: List[Tuple[int, np.ndarray, Optional[np.ndarray]]] = []
        self._ids = itertools.count(1)
        self._current: ContextVar[Optional[int]] = ContextVar("e2e_span", default=None)

    def open(self) -> Tuple[int, Optional[int], Any]:
        """Start a span: returns ``(id, parent id, context token)``."""
        span_id = next(self._ids)
        parent = self._current.get()
        return span_id, parent, self._current.set(span_id)

    def close(self, opened: Tuple[int, Optional[int], Any], name: str, start: float,
              attrs: Optional[Dict[str, Any]]) -> None:
        """Finish a span opened with :meth:`open`."""
        span_id, parent, token = opened
        end = time.monotonic()
        self._current.reset(token)
        self.spans.append((span_id, parent, name, start, end, attrs))

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name`` (for the benchmark's own calls)."""
        opened = self.open()
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(opened, name, start, None)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines.

        A span outlived by its recorded parent keeps it; otherwise the
        parent is dropped: an asyncio task inherits the span open when the
        task was created, which has usually ended before the task's later
        spans start.
        """
        ends = {span[0]: span[4] for span in self.spans}
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, attrs in sorted(self.spans, key=lambda s: s[3]):
                if parent is not None and ends.get(parent, start) < start:
                    parent = None
                record = {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")


def read_spans(path: Path) -> List[Dict[str, Any]]:
    """Spans written by :meth:`Tracer.write`."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class Patches:
    """Attribute replacements that :meth:`restore` undoes, newest first."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, Any]] = []

    def replace(self, owner: object, attribute: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attribute`` to ``make(original)``."""
        original = getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def restore(self) -> None:
        """Put every original back."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def traced(tracer: Tracer, name: str, attrs_fn: Optional[AttrsFn] = None) -> Callable[[Any], Any]:
    """Wrapper factory for a synchronous function or method."""

    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = tracer.open()
            start = time.monotonic()
            result: Any = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                attrs = attrs_fn(args[0] if args else None, args, kwargs, result) if attrs_fn else None
                tracer.close(opened, name, start, attrs)

        return wrapper

    return make


def traced_async(tracer: Tracer, name: str, rows: Callable[[tuple], int]) -> Callable[[Any], Any]:
    """Wrapper factory for the client's coroutine methods; records rows and error codes."""

    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = tracer.open()
            start = time.monotonic()
            attrs: Dict[str, Any] = {"rows": rows(args)}
            try:
                return await fn(*args, **kwargs)
            except ServingError as error:
                attrs["error"] = error.code
                raise
            finally:
                tracer.close(opened, name, start, attrs)

        return wrapper

    return make


def _rows(queries: Any) -> int:
    shape = np.shape(queries)
    return int(shape[0]) if len(shape) == 2 else 1


def install_serving(tracer: Tracer) -> Patches:
    """Wrap the serving layers' entry points (see the module docstring)."""
    patches = Patches()
    patches.replace(AsyncServingClient, "classify", traced_async(tracer, "client.classify", lambda a: 1))
    patches.replace(
        AsyncServingClient, "classify_batch",
        traced_async(tracer, "client.classify_batch", lambda a: _rows(a[1])),
    )
    patches.replace(DeficitRoundRobin, "enqueue", traced(tracer, "admission.enqueue"))
    patches.replace(
        DeficitRoundRobin, "take",
        traced(tracer, "admission.take", lambda self, a, k, result: {"taken": len(result or ())}),
    )

    def engine_round(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(self: ServingEngine, queries: Any, node_budget: Any = None, **kwargs: Any) -> Any:
            opened = tracer.open()
            start = time.monotonic()
            try:
                return fn(self, queries, node_budget, **kwargs)
            finally:
                budgets = None if node_budget is None else np.broadcast_to(
                    np.asarray(node_budget), (_rows(queries),)
                ).copy()
                tracer.rounds.append((opened[0], np.array(queries, dtype=float), budgets))
                tracer.close(opened, "engine.round", start, {"rows": _rows(queries)})

        return wrapper

    patches.replace(ServingEngine, "predict_batch", engine_round)

    def registry_round(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(self: ModelRegistry, tenant: str, queries: Any, *args: Any, **kwargs: Any) -> Any:
            cold = tenant not in self.resident_tenants()
            opened = tracer.open()
            start = time.monotonic()
            try:
                return fn(self, tenant, queries, *args, **kwargs)
            finally:
                attrs: Dict[str, Any] = {
                    "rows": _rows(queries), "tenant": tenant, "cold": cold,
                    "evictions": self.stats.evictions,
                }
                if cold and tenant in self.resident_tenants():
                    attrs["cold_load_ms"] = self.tenant_stats(tenant)["cold_load_ms"]
                tracer.close(opened, "registry.round", start, attrs)

        return wrapper

    patches.replace(ModelRegistry, "predict_batch", registry_round)
    patches.replace(ModelRegistry, "load", traced(tracer, "registry.load"))
    patches.replace(ModelRegistry, "evict", traced(tracer, "registry.evict"))
    patches.replace(
        SharedColumnStore, "__init__",
        traced(tracer, "shm.publish", lambda self, a, k, result: {"bytes": int(getattr(self, "size", 0))}),
    )
    return patches


def _concrete_descents() -> Iterator[type]:
    pending = list(DescentStrategy.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "choose" in vars(cls):
            yield cls


def install_core(tracer: Tracer) -> Patches:
    """Wrap the anytime driver, its parts and the training entry points."""
    patches = Patches()

    def driver_attrs(self: Any, args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
        return {
            "queries": _rows(args[1]),
            "node_reads": int(sum(item.nodes_read for item in result or ())),
        }

    for cls in (FlatForest, AnytimeBayesClassifier):
        patches.replace(cls, "classify_anytime_batch", traced(tracer, "driver", driver_attrs))
    patches.replace(
        FlatForest, "predict_batch",
        traced(tracer, "full", lambda self, a, k, result: {
            "rows": _rows(a[1]), "budgeted": (a[2] if len(a) > 2 else k.get("node_budget")) is not None,
        }),
    )
    for cls in _concrete_descents():
        patches.replace(cls, "choose", traced(tracer, "descent.choose"))
    patches.replace(Frontier, "refine_item", traced(tracer, "frontier.refine_item"))
    for function in ("log_gaussian_pdf_batch", "log_epanechnikov_pdf_batch"):
        patches.replace(
            frontier_module, function,
            traced(tracer, "kernel", lambda first, a, k, result: {"rows": _rows(a[0])}),
        )
    patches.replace(AnytimeBayesClassifier, "partial_fit", traced(tracer, "insert"))
    patches.replace(AnytimeBayesClassifier, "advance_time", traced(tracer, "decay"))
    return patches


def save_rounds(tracer: Tracer, path: Path) -> None:
    """Write the logged engine rounds for the in-process replay (budget -1: full refinement)."""
    rounds = tracer.rounds
    queries = [q for _, q, _ in rounds] or [np.empty((0, 0))]
    budgets = [np.full(len(q), -1) if b is None else b for _, q, b in rounds] or [np.empty(0)]
    with open(path, "wb") as handle:
        np.savez(
            handle,
            ids=np.array([round_id for round_id, _, _ in rounds], dtype=np.int64),
            sizes=np.array([len(q) for _, q, _ in rounds], dtype=np.int64),
            queries=np.concatenate(queries),
            budgets=np.concatenate(budgets).astype(np.int64),
        )


def load_rounds(path: Path) -> List[Tuple[int, np.ndarray, Optional[np.ndarray]]]:
    """Rounds written by :func:`save_rounds` as ``(span id, queries, budgets or None)``."""
    with np.load(path, allow_pickle=False) as data:
        ids, sizes = data["ids"], data["sizes"]
        queries, budgets = data["queries"], data["budgets"]
    rounds: List[Tuple[int, np.ndarray, Optional[np.ndarray]]] = []
    offset = 0
    for round_id, size in zip(ids, sizes):
        chunk = slice(offset, offset + int(size))
        offset += int(size)
        round_budgets = budgets[chunk]
        rounds.append(
            (int(round_id), queries[chunk], None if np.all(round_budgets < 0) else round_budgets)
        )
    return rounds

"""Anytime stream classification driver.

Glues together a :class:`~repro.stream.stream.DataStream` and an anytime
classifier: every arriving object is classified with exactly the node budget
dictated by the stream's arrival process, and (in the supervised setting) the
classifier may afterwards learn from the revealed label — the combination of
anytime classification and incremental online learning that defines the Bayes
tree's stream scenario.

The driver processes the stream in deferred-label micro-batches
(``chunk_size``): all objects of a chunk are classified against the same
model state — with one lockstep ``classify_anytime_batch`` call carrying the
items' individual arrival budgets when the classifier supports it — and the
revealed labels are learned only at the chunk boundary.  ``chunk_size=1``
(the default) is the classic fully-sequential test-then-train protocol, and
for any chunk size the batched and the scalar path are trace-identical.

The stream's arrival-process timestamps also drive temporal decay: when the
classifier exposes ``advance_time`` (the adaptive Bayes forest), the driver
advances its logical clock to the chunk's last arrival before classifying and
stamps every learned label with that arrival time — older kernels fade by
``2 ** (-decay_rate * dt)`` while the stream plays (a no-op for classifiers
configured without decay).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, List, Optional, Protocol, Sequence

import numpy as np

from .stream import DataStream, StreamItem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.driver import AnytimeClassification

__all__ = [
    "AnytimeClassifierLike",
    "StreamStepResult",
    "StreamRunResult",
    "run_anytime_stream",
]


class AnytimeClassifierLike(Protocol):
    """Structural interface the anytime drivers require of a classifier.

    Only budgeted scalar classification is mandatory.  The optional
    capabilities — ``classify_anytime_batch`` (lockstep batching),
    ``advance_time``/timestamped ``partial_fit`` (temporal decay), plain
    ``partial_fit`` (online learning) — are discovered with ``hasattr`` at
    run time and accessed through ``getattr``, so baseline classifiers that
    lack them still satisfy this protocol.
    """

    def classify_anytime(
        self, query: "Sequence[float] | np.ndarray", max_nodes: int
    ) -> "AnytimeClassification":
        """Classify ``query`` with at most ``max_nodes`` node reads."""
        ...


@dataclass(frozen=True)
class StreamStepResult:
    """Outcome of classifying one stream object."""

    item: StreamItem
    prediction: Hashable
    correct: Optional[bool]
    nodes_read: int


@dataclass
class StreamRunResult:
    """Aggregate outcome of a stream run."""

    steps: List[StreamStepResult] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        """Prequential accuracy over the labelled (evaluated) stream steps."""
        evaluated = [step for step in self.steps if step.correct is not None]
        if not evaluated:
            return float("nan")
        return float(np.mean([step.correct for step in evaluated]))

    @property
    def mean_budget(self) -> float:
        """Mean node budget the arrival process granted per stream object."""
        if not self.steps:
            return float("nan")
        return float(np.mean([step.item.budget for step in self.steps]))

    @property
    def mean_nodes_read(self) -> float:
        """Mean node reads actually spent per object (<= the granted budget)."""
        if not self.steps:
            return float("nan")
        return float(np.mean([step.nodes_read for step in self.steps]))

    def accuracy_by_budget(self) -> dict:
        """Accuracy grouped by the node budget the stream allowed."""
        buckets: dict = {}
        for step in self.steps:
            if step.correct is None:
                continue
            buckets.setdefault(step.item.budget, []).append(step.correct)
        return {budget: float(np.mean(values)) for budget, values in sorted(buckets.items())}

    def correct_sequence(self) -> np.ndarray:
        """0/1 outcomes of the evaluated (labelled) steps, in stream order."""
        return np.array(
            [step.correct for step in self.steps if step.correct is not None], dtype=float
        )

    def sliding_window_accuracy(self, window: int) -> np.ndarray:
        """Prequential accuracy over a sliding count window (drift diagnostics)."""
        from ..evaluation.metrics import sliding_window_accuracy

        return sliding_window_accuracy(self.correct_sequence(), window)

    def fading_accuracy(self, fading_factor: float = 0.99) -> np.ndarray:
        """Prequential accuracy with an exponential fading factor."""
        from ..evaluation.metrics import fading_accuracy

        return fading_accuracy(self.correct_sequence(), fading_factor)


def _process_chunk(
    classifier: AnytimeClassifierLike,
    items: List[StreamItem],
    result: StreamRunResult,
    online_learning: bool,
    batched: bool,
    timestamped: bool,
) -> None:
    """Classify one micro-batch of stream items, then apply their labels.

    All items of the chunk are classified against the *same* model state;
    only afterwards are the revealed labels learned (deferred-label
    test-then-train).  The batched and the scalar path therefore see exactly
    the same model for every item and produce identical predictions.

    ``timestamped`` classifiers additionally see the logical clock advanced
    to the chunk's last arrival before classification, and learn each label
    at that time — under the deferred-label protocol the whole chunk is
    resolved at its boundary, so one shared "now" per chunk keeps the scalar
    and the batched path trace-identical for every chunk size.
    """
    if timestamped:
        getattr(classifier, "advance_time")(items[-1].arrival_time)
    if batched:
        features = np.stack([item.features for item in items])
        budgets = [item.budget for item in items]
        classifications = getattr(classifier, "classify_anytime_batch")(
            features, max_nodes=budgets, record_history=False
        )
    else:
        classifications = [
            classifier.classify_anytime(item.features, max_nodes=item.budget)
            for item in items
        ]
    for item, classification in zip(items, classifications):
        prediction = classification.final_prediction
        correct = None if item.label is None else bool(prediction == item.label)
        result.steps.append(
            StreamStepResult(
                item=item,
                prediction=prediction,
                correct=correct,
                nodes_read=classification.nodes_read,
            )
        )
    if online_learning:
        for item in items:
            if item.label is not None:
                if timestamped:
                    getattr(classifier, "partial_fit")(
                        item.features, item.label, timestamp=item.arrival_time
                    )
                else:
                    getattr(classifier, "partial_fit")(item.features, item.label)


def run_anytime_stream(
    classifier: AnytimeClassifierLike,
    stream: DataStream,
    limit: Optional[int] = None,
    online_learning: bool = False,
    chunk_size: Optional[int] = None,
) -> StreamRunResult:
    """Classify every stream object under its anytime budget.

    Parameters
    ----------
    classifier:
        Any object with ``classify_anytime(x, max_nodes)`` returning an
        :class:`~repro.core.driver.AnytimeClassification` and (when
        ``online_learning`` is requested) ``partial_fit(x, label)``.
    stream:
        The data stream to process.
    limit:
        Optional cap on the number of processed objects; enforced *before*
        an object is classified or learned from, so ``limit=0`` touches
        neither the classifier nor the stream statistics.
    online_learning:
        When true, the revealed label is used to update the classifier after
        each prediction (test-then-train evaluation).
    chunk_size:
        Number of stream objects classified per micro-batch before their
        labels are applied (deferred-label test-then-train).  The default of
        1 is the classic fully-sequential protocol: every object sees a model
        trained on *all* previous objects.  Larger chunks model the realistic
        setting where labels arrive with a delay and let the classifier
        amortise node reads across the chunk via
        ``classify_anytime_batch`` when the classifier has it (the forest
        does; the single-tree classifier classifies item by item) — results
        are trace-identical to per-item ``classify_anytime`` calls with the
        same ``chunk_size``.

    Classifiers exposing ``advance_time`` (the adaptive Bayes forest) have
    their logical clock driven by the items' arrival timestamps, so temporal
    decay and expiry progress with the stream; with ``decay_rate=0`` this is
    a no-op and the run is trace-identical to a clock-less classifier.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be non-negative")
    size = 1 if chunk_size is None else int(chunk_size)
    if size < 1:
        raise ValueError("chunk_size must be at least 1")
    batched = hasattr(classifier, "classify_anytime_batch")
    timestamped = hasattr(classifier, "advance_time")

    result = StreamRunResult()
    chunk: List[StreamItem] = []
    # islice bounds consumption: the limit never pulls (and discards) an
    # extra element from the stream iterator, and limit=0 touches nothing.
    source = stream if limit is None else itertools.islice(stream, limit)
    for item in source:
        chunk.append(item)
        if len(chunk) >= size:
            _process_chunk(classifier, chunk, result, online_learning, batched, timestamped)
            chunk = []
    if chunk:
        _process_chunk(classifier, chunk, result, online_learning, batched, timestamped)
    return result

"""Classification metrics used in the evaluation harness."""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "accuracy",
    "confusion_matrix",
    "anytime_curve_summary",
    "sliding_window_accuracy",
    "fading_accuracy",
    "latency_percentiles",
    "classification_trace_hash",
]


def accuracy(predictions: Sequence[Hashable], labels: Sequence[Hashable]) -> float:
    """Fraction of predictions equal to the true labels."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels must have the same length")
    if not labels:
        raise ValueError("cannot compute accuracy of zero predictions")
    return float(np.mean([p == l for p, l in zip(predictions, labels)]))


def confusion_matrix(
    predictions: Sequence[Hashable], labels: Sequence[Hashable]
) -> Tuple[np.ndarray, List[Hashable]]:
    """Confusion matrix ``C[i, j]`` = #objects of true class i predicted as class j."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels must have the same length")
    classes = sorted(set(labels) | set(predictions), key=repr)
    index = {label: i for i, label in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes)), dtype=int)
    for prediction, label in zip(predictions, labels):
        matrix[index[label], index[prediction]] += 1
    return matrix, classes


def _prequential_outcomes(outcomes: Sequence[float]) -> np.ndarray:
    """Validate and coerce a 0/1 (or bool) prequential outcome sequence."""
    array = np.asarray(list(outcomes), dtype=float)
    if array.ndim != 1:
        raise ValueError("outcomes must be a 1-d sequence")
    return array


def sliding_window_accuracy(outcomes: Sequence[float], window: int) -> np.ndarray:
    """Prequential accuracy over a sliding count window.

    ``result[t]`` is the mean outcome of the last ``window`` evaluated
    objects up to and including ``t`` (fewer while the window fills).  The
    sliding window forgets abruptly, which makes it the standard lens for
    *drift recovery*: after a concept change the curve first collapses and
    then climbs back as the classifier adapts — the climb-back speed is the
    recovery time (Gama et al., "On evaluating stream learning algorithms").
    """
    outcomes = _prequential_outcomes(outcomes)
    if window < 1:
        raise ValueError("window must be positive")
    cumulative = np.concatenate([[0.0], np.cumsum(outcomes)])
    t = np.arange(1, outcomes.size + 1)
    start = np.maximum(t - window, 0)
    return (cumulative[t] - cumulative[start]) / (t - start)


def fading_accuracy(outcomes: Sequence[float], fading_factor: float = 0.99) -> np.ndarray:
    """Prequential accuracy with exponential fading (Gama's alpha-fading).

    ``result[t] = S_t / N_t`` with ``S_t = outcome_t + alpha * S_{t-1}`` and
    ``N_t = 1 + alpha * N_{t-1}``: every past outcome loses influence by the
    factor ``alpha`` per step, the streaming analogue of the Bayes forest's
    ``2 ** (-lambda * dt)`` statistic decay.  ``alpha = 1`` degenerates to
    the running mean (never forgets).
    """
    outcomes = _prequential_outcomes(outcomes)
    if not (0.0 < fading_factor <= 1.0):
        raise ValueError("fading_factor must be in (0, 1]")
    result = np.empty(outcomes.size)
    hits = 0.0
    norm = 0.0
    for t, outcome in enumerate(outcomes):
        hits = outcome + fading_factor * hits
        norm = 1.0 + fading_factor * norm
        result[t] = hits / norm
    return result


def anytime_curve_summary(curve: Sequence[float]) -> Dict[str, float]:
    """Summary statistics of an accuracy-vs-nodes curve.

    * ``initial`` — accuracy using only the root models (node 0),
    * ``final`` — accuracy at the largest evaluated budget,
    * ``best`` — maximum over the curve,
    * ``mean`` — average accuracy over the node axis (the area under the
      anytime curve, the scalar we use to rank bulk-loading strategies).
    """
    array = np.asarray(list(curve), dtype=float)
    if array.size == 0:
        raise ValueError("curve must contain at least one value")
    return {
        "initial": float(array[0]),
        "final": float(array[-1]),
        "best": float(array.max()),
        "mean": float(array.mean()),
    }


def latency_percentiles(
    samples_seconds: Sequence[float], percentiles: Sequence[float] = (50.0, 99.0)
) -> Dict[str, float]:
    """Latency percentiles (in milliseconds) of a sample of request timings.

    Returns ``{"p50": ..., "p99": ...}`` style keys for the requested
    percentiles plus ``"mean"`` — the serving benchmark's summary of a batch
    latency distribution.  Percentile interpolation is numpy's default
    (linear), computed on the raw sample.
    """
    samples = np.asarray(list(samples_seconds), dtype=float)
    if samples.size == 0:
        raise ValueError("need at least one latency sample")
    if samples.min() < 0:
        raise ValueError("latencies must be non-negative")
    result = {
        f"p{percentile:g}": float(np.percentile(samples, percentile) * 1e3)
        for percentile in percentiles
    }
    result["mean"] = float(samples.mean() * 1e3)
    return result


def classification_trace_hash(results: Iterable) -> str:
    """Order-sensitive SHA-256 over a sequence of anytime classifications.

    Hashes, for every :class:`~repro.core.driver.AnytimeClassification`,
    the per-step predictions, the exact float bits of every recorded log
    posterior (labels in repr-sorted order) and the node-read count.  Two
    classifiers produce the same hash iff their refinement traces agree bit
    for bit — the equality the snapshot layer promises between a restored
    forest and the never-persisted one.
    """
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr(result.predictions).encode("utf-8"))
        digest.update(np.int64(result.nodes_read).tobytes())
        for log_posterior in result.log_posteriors:
            for label in sorted(log_posterior.keys(), key=repr):
                digest.update(repr(label).encode("utf-8"))
                digest.update(np.float64(log_posterior[label]).tobytes())
    return digest.hexdigest()

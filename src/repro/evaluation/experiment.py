"""Experiment runners that regenerate the paper's figures and tables.

Every figure of the evaluation section corresponds to one function here; the
benchmark files under ``benchmarks/`` are thin wrappers that call these
runners, print the same series the paper plots and assert the qualitative
orderings listed in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import BayesTreeConfig
from ..data.synthetic import DATASET_SPECS, Dataset, make_dataset, make_drift_stream
from ..index.rstar import TreeParameters
from .metrics import anytime_curve_summary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .anytime_eval import CrossValidatedCurve

__all__ = [
    "ExperimentConfig",
    "BulkloadExperimentResult",
    "run_bulkload_experiment",
    "StreamExperimentResult",
    "run_stream_experiment",
    "DriftRecoveryResult",
    "run_drift_recovery_experiment",
    "table1_rows",
    "format_curve_table",
]


#: Tree parameters used by the experiment harness.  The paper derives a fanout
#: of a few dozen entries from its 2 KiB pages; with the scaled-down synthetic
#: data a smaller fanout keeps the number of nodes comparable to the paper's
#: x-axis of 0..100 node reads.
DEFAULT_EXPERIMENT_CONFIG = BayesTreeConfig(
    tree=TreeParameters(max_fanout=8, min_fanout=3, leaf_capacity=8, leaf_min=3)
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one accuracy-vs-nodes experiment."""

    dataset: str
    size: int = 1200
    max_nodes: int = 100
    n_folds: int = 4
    strategies: Tuple[str, ...] = ("em_topdown", "hilbert", "goldberger", "iterative")
    descents: Tuple[str, ...] = ("glo",)
    qbk_k: Optional[int] = None
    max_test_objects: Optional[int] = 40
    random_state: int = 0
    tree_config: BayesTreeConfig = DEFAULT_EXPERIMENT_CONFIG


@dataclass
class BulkloadExperimentResult:
    """Curves of one experiment, keyed by (strategy, descent)."""

    config: ExperimentConfig
    curves: Dict[Tuple[str, str], CrossValidatedCurve] = field(default_factory=dict)

    def mean_curve(self, strategy: str, descent: str = "glo") -> np.ndarray:
        """Cross-validated mean anytime curve of one (strategy, descent) cell."""
        return self.curves[(strategy, descent)].mean_curve

    def summary(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per-(strategy, descent) summary stats of the mean anytime curves."""
        return {key: anytime_curve_summary(curve.mean_curve) for key, curve in self.curves.items()}

    def mean_accuracy(self, strategy: str, descent: str = "glo") -> float:
        """Average accuracy over the node axis (area under the anytime curve)."""
        return float(self.mean_curve(strategy, descent).mean())


def run_bulkload_experiment(config: ExperimentConfig) -> BulkloadExperimentResult:
    """Run the bulk-loading comparison of Figures 2-4 for one data set."""
    # Imported here, not at module level: it loads every bulk loader, the
    # space-filling curves and EM, which a stream job reading
    # DEFAULT_EXPERIMENT_CONFIG never uses.
    from .anytime_eval import cross_validated_anytime_curve

    dataset = make_dataset(config.dataset, size=config.size, random_state=config.random_state)
    result = BulkloadExperimentResult(config=config)
    for strategy in config.strategies:
        for descent in config.descents:
            curve = cross_validated_anytime_curve(
                dataset,
                strategy=strategy,
                descent=descent,
                max_nodes=config.max_nodes,
                n_folds=config.n_folds,
                config=config.tree_config,
                qbk_k=config.qbk_k,
                random_state=config.random_state,
                max_test_objects=config.max_test_objects,
            )
            result.curves[(strategy, descent)] = curve
    return result


@dataclass
class StreamExperimentResult:
    """Outcome of one test-then-train stream experiment."""

    accuracy: float
    accuracy_by_budget: Dict[int, float]
    mean_nodes_read: float
    objects: int
    learned_objects: int


def run_stream_experiment(
    dataset: Dataset,
    warmup: int = 64,
    limit: Optional[int] = None,
    nodes_per_time_unit: float = 10.0,
    chunk_size: int = 64,
    tree_config: Optional[BayesTreeConfig] = None,
    random_state: int = 0,
) -> StreamExperimentResult:
    """Prequential (test-then-train) evaluation on a replayed stream.

    The classifier warm-starts on the first ``warmup`` stream objects and
    then processes the rest with the micro-batched anytime stream driver:
    each object is classified under its arrival budget before its label is
    learned, with labels applied at ``chunk_size`` boundaries (deferred-label
    protocol; see ``repro.stream.run_anytime_stream``).  This is the paper's
    combined anytime-classification + incremental-online-learning scenario as
    one reusable experiment.
    """
    from ..core.classifier import AnytimeBayesClassifier
    from ..stream import DataStream, run_anytime_stream

    if warmup < 1:
        raise ValueError("warmup must be positive")
    stream = DataStream(
        dataset, nodes_per_time_unit=nodes_per_time_unit, random_state=random_state
    )
    items = stream.items(None if limit is None else warmup + limit)
    if len(items) <= warmup:
        raise ValueError("stream must contain more objects than the warmup")
    head, tail = items[:warmup], items[warmup:]
    classifier = AnytimeBayesClassifier(config=tree_config or DEFAULT_EXPERIMENT_CONFIG)
    classifier.fit(
        np.stack([item.features for item in head]), [item.label for item in head]
    )
    result = run_anytime_stream(
        classifier, tail, online_learning=True, chunk_size=chunk_size
    )
    learned = sum(tree.n_objects for tree in classifier.trees.values()) - warmup
    return StreamExperimentResult(
        accuracy=result.accuracy,
        accuracy_by_budget=result.accuracy_by_budget(),
        mean_nodes_read=result.mean_nodes_read,
        objects=len(result.steps),
        learned_objects=int(learned),
    )


@dataclass
class DriftRecoveryResult:
    """Decayed-vs-plain comparison on one drifting stream.

    ``post_drift_accuracy`` values are means of the sliding-window
    prequential accuracy over the post-drift region (after a settling gap of
    half a window, so the window holds post-drift outcomes only).
    """

    drift_position: int
    window: int
    decayed_curve: np.ndarray
    plain_curve: np.ndarray
    decayed_post_drift_accuracy: float
    plain_post_drift_accuracy: float
    decayed_stored_objects: int
    plain_stored_objects: int

    @property
    def recovery_gain(self) -> float:
        """How much post-drift accuracy the exponential decay buys."""
        return self.decayed_post_drift_accuracy - self.plain_post_drift_accuracy


def run_drift_recovery_experiment(
    size: int = 600,
    warmup: int = 64,
    window: int = 100,
    decay_rate: float = 0.02,
    expiry_threshold: float = 1e-3,
    drift: str = "sudden",
    chunk_size: int = 32,
    nodes_per_time_unit: float = 20.0,
    tree_config: Optional[BayesTreeConfig] = None,
    random_state: int = 0,
) -> DriftRecoveryResult:
    """Measure drift recovery of the decayed forest against a plain one.

    Both classifiers are warm-started with timestamped ``partial_fit`` on the
    first ``warmup`` stream objects and then run the same deferred-label
    test-then-train protocol over a sudden-drift stream (the class regions
    swap at the midpoint, so a never-forgetting model is maximally misled).
    The streams are replayed *in order* (no shuffling — shuffling would
    destroy the drift) and the items' arrival timestamps drive the decay.
    """
    from ..core.classifier import AnytimeBayesClassifier
    from ..stream import DataStream, run_anytime_stream

    # The concept change sits at the second segment's start — ceil division,
    # matching data.synthetic._concept_schedule.
    segment_length = -(-size // 2)
    if not (0 < warmup < segment_length):
        raise ValueError("warmup must lie strictly before the concept change (size/2)")
    if segment_length + window // 2 >= size:
        raise ValueError("window leaves no settled post-drift region; shrink it or grow size")
    base = tree_config or DEFAULT_EXPERIMENT_CONFIG
    dataset = make_drift_stream(
        size=size, drift=drift, n_segments=2, random_state=random_state
    )
    curves: Dict[str, np.ndarray] = {}
    stored: Dict[str, int] = {}
    for name, config in (
        ("plain", replace(base, decay_rate=0.0, expiry_threshold=0.0)),
        ("decayed", replace(base, decay_rate=decay_rate, expiry_threshold=expiry_threshold)),
    ):
        classifier = AnytimeBayesClassifier(config=config)
        stream = DataStream(
            dataset, shuffle=False, nodes_per_time_unit=nodes_per_time_unit
        )
        items = stream.items()
        for item in items[:warmup]:
            classifier.partial_fit(item.features, item.label, timestamp=item.arrival_time)
        result = run_anytime_stream(
            classifier, items[warmup:], online_learning=True, chunk_size=chunk_size
        )
        curves[name] = result.sliding_window_accuracy(window)
        stored[name] = int(sum(tree.n_objects for tree in classifier.trees.values()))
    drift_position = segment_length - warmup  # index of the concept change in the curves
    settled = drift_position + window // 2
    return DriftRecoveryResult(
        drift_position=drift_position,
        window=window,
        decayed_curve=curves["decayed"],
        plain_curve=curves["plain"],
        decayed_post_drift_accuracy=float(curves["decayed"][settled:].mean()),
        plain_post_drift_accuracy=float(curves["plain"][settled:].mean()),
        decayed_stored_objects=stored["decayed"],
        plain_stored_objects=stored["plain"],
    )


def table1_rows(sizes: Optional[Dict[str, int]] = None) -> List[Dict[str, object]]:
    """The rows of Table 1: name, size, classes, features (paper vs generated).

    ``sizes`` optionally overrides the generated size per data set; the paper
    sizes are always reported alongside for comparison.
    """
    rows: List[dict] = []
    for name, spec in DATASET_SPECS.items():
        generated_size = (sizes or {}).get(name, spec.default_size())
        dataset = make_dataset(name, size=generated_size, random_state=0)
        row = dataset.summary_row()
        row["paper_size"] = spec.paper_size
        rows.append(row)
    return rows


def format_curve_table(
    result: BulkloadExperimentResult, nodes: Sequence[int] = (0, 10, 20, 40, 60, 80, 100)
) -> str:
    """Human-readable table of accuracy-after-n-nodes, like the paper's figures."""
    lines: List[str] = []
    header = "strategy/descent".ljust(24) + "".join(f"n={n}".rjust(9) for n in nodes) + "    mean"
    lines.append(header)
    for (strategy, descent), curve in sorted(result.curves.items()):
        mean_curve = curve.mean_curve
        cells = "".join(
            f"{mean_curve[min(n, len(mean_curve) - 1)]:9.3f}" for n in nodes
        )
        lines.append(f"{strategy} ({descent})".ljust(24) + cells + f"{mean_curve.mean():8.3f}")
    return "\n".join(lines)

"""Anytime accuracy evaluation: the accuracy-after-each-node curves of §3.2.

"We performed 4-fold cross validation and show the classification accuracy
after each node averaged over the four folds."  The functions here compute
exactly those curves for any anytime classifier and any bulk-loading strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from ..bulkload.registry import make_bulk_loader
from ..core.classifier import AnytimeBayesClassifier
from ..core.config import BayesTreeConfig
from ..core.driver import BATCH_CHUNK_QUERIES
from ..data.splits import stratified_k_fold
from ..data.synthetic import Dataset
from ..stream.anytime import AnytimeClassifierLike

__all__ = [
    "anytime_accuracy_curve",
    "build_bulkloaded_classifier",
    "cross_validated_anytime_curve",
]


def anytime_accuracy_curve(
    classifier: AnytimeClassifierLike,
    features: np.ndarray,
    labels: Sequence[Hashable],
    max_nodes: int,
) -> np.ndarray:
    """Accuracy after 0..max_nodes node reads, averaged over the test objects.

    Works with any classifier exposing ``classify_anytime(x, max_nodes)``.
    Classifiers that additionally provide ``classify_anytime_batch`` (the
    multi-tree anytime Bayes classifier) are evaluated through the batch
    driver, which advances all test objects' frontiers together and shares
    vectorised node evaluations across them — the per-query results are
    identical by construction.  When a query exhausts all refinable nodes
    early, its last prediction is carried forward (the model cannot change any
    more), matching how the paper's curves flatten once the trees are fully
    read.
    """
    features = np.asarray(features, dtype=float)
    labels = list(labels)
    if features.shape[0] != len(labels):
        raise ValueError("features and labels must have the same length")
    if features.shape[0] == 0:
        raise ValueError("need at least one test object")
    if max_nodes < 0:
        raise ValueError("max_nodes must be non-negative")

    correct = np.zeros(max_nodes + 1, dtype=float)
    # Tally chunk by chunk and discard the records: the batch driver bounds
    # the live *frontiers* internally, but the per-step prediction records it
    # returns would still accumulate O(test-set size) if requested in one go.
    chunk_size = BATCH_CHUNK_QUERIES
    for start in range(0, features.shape[0], chunk_size):
        chunk = features[start : start + chunk_size]
        if hasattr(classifier, "classify_anytime_batch"):
            results = classifier.classify_anytime_batch(chunk, max_nodes=max_nodes)
        else:
            results = [classifier.classify_anytime(x, max_nodes=max_nodes) for x in chunk]
        for result, label in zip(results, labels[start : start + chunk_size]):
            for nodes in range(max_nodes + 1):
                correct[nodes] += result.prediction_after(nodes) == label
    return correct / features.shape[0]


def build_bulkloaded_classifier(
    train_features: np.ndarray,
    train_labels: Sequence[Hashable],
    strategy: str = "iterative",
    descent: str = "glo",
    config: Optional[BayesTreeConfig] = None,
    qbk_k: Optional[int] = None,
    random_state: Optional[int] = None,
) -> AnytimeBayesClassifier:
    """Train one Bayes tree per class with the given bulk-loading strategy."""
    config = config or BayesTreeConfig()
    train_features = np.asarray(train_features, dtype=float)
    train_labels = list(train_labels)
    classifier = AnytimeBayesClassifier(config=config, descent=descent, qbk_k=qbk_k)
    for label in sorted(set(train_labels), key=repr):
        mask = np.array([l == label for l in train_labels])
        loader_kwargs: Dict[str, object] = {}
        if strategy in ("em_topdown",):
            loader_kwargs["random_state"] = random_state
        loader = make_bulk_loader(strategy, config=config, **loader_kwargs)
        tree = loader.build_tree(train_features[mask], label=label)
        classifier.set_tree(label, tree)
    return classifier


@dataclass
class CrossValidatedCurve:
    """Per-fold and averaged anytime accuracy curves."""

    strategy: str
    descent: str
    fold_curves: List[np.ndarray] = field(default_factory=list)

    @property
    def mean_curve(self) -> np.ndarray:
        """Accuracy-vs-nodes curve averaged over the folds."""
        if not self.fold_curves:
            raise ValueError("no folds evaluated")
        return np.mean(np.vstack(self.fold_curves), axis=0)


def cross_validated_anytime_curve(
    dataset: Dataset,
    strategy: str = "iterative",
    descent: str = "glo",
    max_nodes: int = 100,
    n_folds: int = 4,
    config: Optional[BayesTreeConfig] = None,
    qbk_k: Optional[int] = None,
    random_state: Optional[int] = None,
    max_test_objects: Optional[int] = None,
) -> CrossValidatedCurve:
    """The paper's protocol: k-fold CV, accuracy after each node, averaged.

    ``max_test_objects`` optionally subsamples each fold's test set — the
    curves converge quickly with the synthetic data and the benchmark harness
    uses this to keep pure-Python runtimes reasonable (see DESIGN.md).
    """
    folds = stratified_k_fold(dataset.labels, n_folds=n_folds, random_state=random_state)
    result = CrossValidatedCurve(strategy=strategy, descent=descent)
    rng = np.random.default_rng(random_state)
    for fold in folds:
        classifier = build_bulkloaded_classifier(
            dataset.features[fold.train_indices],
            dataset.labels[fold.train_indices],
            strategy=strategy,
            descent=descent,
            config=config,
            qbk_k=qbk_k,
            random_state=random_state,
        )
        test_indices = fold.test_indices
        if max_test_objects is not None and len(test_indices) > max_test_objects:
            test_indices = rng.choice(test_indices, size=max_test_objects, replace=False)
        curve = anytime_accuracy_curve(
            classifier,
            dataset.features[test_indices],
            dataset.labels[test_indices],
            max_nodes=max_nodes,
        )
        result.fold_curves.append(curve)
    return result

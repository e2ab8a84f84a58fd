"""Single-tree multi-class Bayes tree (paper §4.1, structural modification).

Instead of one Bayes tree per class, the complete training data is stored in a
single tree and "the entry structure is modified such that information about
the individual classes can still be obtained".  We realise the modification by
attaching a per-class cluster feature to every directory entry, so a single
descent refines the models of *all* classes in parallel — the speed-up the
paper anticipates.

The per-class statistics are computed in a bottom-up pass after the tree is
built (and recomputed after online insertions), which keeps the index
substrate untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from ..index.cluster_feature import ClusterFeature
from ..index.entry import DirectoryEntry, LeafEntry
from ..index.node import AnyEntry, Node
from .bayes_tree import BayesTree, finite_points
from .config import BayesTreeConfig
from .descent import DescentStrategy, make_descent_strategy
from .driver import AnytimeClassification

__all__ = ["SingleTreeAnytimeClassifier"]


@dataclass
class _ClassAwareItem:
    """Frontier item of the single-tree classifier with per-class contributions."""

    entry: AnyEntry
    level: int
    order: int
    contributions: Dict[Hashable, float]

    @property
    def is_refinable(self) -> bool:
        return isinstance(self.entry, DirectoryEntry)

    @property
    def contribution(self) -> float:
        """Total weighted density (used by the global-best descent measure)."""
        return float(sum(self.contributions.values()))

    @property
    def log_contribution(self) -> float:
        """Log of the total weighted density (shared descent-strategy interface)."""
        total = self.contribution
        return math.log(total) if total > 0 else float("-inf")


class _ItemRows:
    """The rows a descent strategy reads (:class:`~repro.core.descent.FrontierRows`).

    Row ``i`` is ``items[i]``: the item list keeps join order (items are
    appended as they join and popped in place), and geometric descent
    measures the items' index-entry MBRs.
    """

    def __init__(self, items: List[_ClassAwareItem], query: np.ndarray) -> None:
        self.items = items
        self.query = query

    @property
    def levels(self) -> np.ndarray:
        return np.array([item.level for item in self.items], dtype=np.int64)

    @property
    def log_contributions(self) -> np.ndarray:
        return np.array([item.log_contribution for item in self.items], dtype=float)

    def refinable_rows(self) -> np.ndarray:
        return np.flatnonzero(self.levels >= 0)

    def min_distance(self, row: int) -> float:
        return self.items[row].entry.mbr.min_distance(self.query)


class SingleTreeAnytimeClassifier:
    """Anytime Bayes classifier storing all classes in one Bayes tree."""

    def __init__(
        self,
        config: Optional[BayesTreeConfig] = None,
        descent: str | DescentStrategy = "glo",
    ) -> None:
        self.config = config or BayesTreeConfig()
        self.descent = descent if isinstance(descent, DescentStrategy) else make_descent_strategy(descent)
        self.tree: Optional[BayesTree] = None
        self.priors: Dict[Hashable, float] = {}
        self._class_features: Dict[int, Dict[Hashable, ClusterFeature]] = {}
        self._total_objects = 0

    # -- training ---------------------------------------------------------------------------------
    @property
    def classes(self) -> List[Hashable]:
        return sorted(self.priors.keys(), key=repr)

    @property
    def is_fitted(self) -> bool:
        return self.tree is not None and self._total_objects > 0

    def fit(self, points: np.ndarray, labels: Sequence[Hashable]) -> "SingleTreeAnytimeClassifier":
        """Build one tree over the complete training set by iterative insertion."""
        points = finite_points(points)
        labels = list(labels)
        if points.ndim != 2 or len(labels) != points.shape[0]:
            raise ValueError("points must be (n, d) with one label per row")
        self.tree = BayesTree(dimension=points.shape[1], config=self.config)
        for point, label in zip(points, labels):
            self.tree.insert(point, label=label)
        self._rebuild_class_statistics()
        return self

    def partial_fit(self, point: Sequence[float] | np.ndarray, label: Hashable) -> None:
        """Online insertion of a new labelled object."""
        point = finite_points(point)
        if self.tree is None:
            self.tree = BayesTree(dimension=point.shape[0], config=self.config)
        self.tree.insert(point, label=label)
        self._rebuild_class_statistics()

    def _rebuild_class_statistics(self) -> None:
        """Bottom-up pass computing per-class cluster features for every entry."""
        assert self.tree is not None
        self._class_features = {}
        counts: Dict[Hashable, float] = {}
        self._collect_node(self.tree.root, counts)
        self._total_objects = int(sum(counts.values()))
        if self._total_objects:
            self.priors = {label: count / self._total_objects for label, count in counts.items()}
        else:
            self.priors = {}

    def _collect_node(self, node: Node, counts: Dict[Hashable, float]) -> Dict[Hashable, ClusterFeature]:
        """Return (and cache) the per-class CFs of every entry in ``node``."""
        node_features: Dict[Hashable, ClusterFeature] = {}
        for entry in node.entries:
            if isinstance(entry, LeafEntry):
                feature = ClusterFeature.from_point(entry.point)
                entry_features = {entry.label: feature}
                counts[entry.label] = counts.get(entry.label, 0.0) + 1.0
            else:
                child_features = self._collect_node(entry.child, counts)
                entry_features = child_features
            self._class_features[id(entry)] = entry_features
            for label, feature in entry_features.items():
                if label in node_features:
                    node_features[label] = node_features[label] + feature
                else:
                    node_features[label] = feature.copy()
        return node_features

    # -- per-class densities --------------------------------------------------------------------------
    def _entry_contributions(self, entry: AnyEntry, query: np.ndarray) -> Dict[Hashable, float]:
        """Weighted per-class densities contributed by one frontier entry."""
        contributions: Dict[Hashable, float] = {}
        features = self._class_features[id(entry)]
        assert self.tree is not None
        if isinstance(entry, LeafEntry):
            label = entry.label
            weight = 1.0 / self._class_count(label)
            contributions[label] = weight * entry.density(
                query, bandwidth=self.tree.bandwidth, kernel=self.config.kernel
            )
            return contributions
        bandwidth = self.tree.bandwidth
        inflation = None if bandwidth is None else bandwidth ** 2
        for label, feature in features.items():
            weight = feature.n / self._class_count(label)
            gaussian = feature.to_gaussian(weight=1.0)
            if inflation is not None:
                from ..stats.gaussian import Gaussian

                gaussian = Gaussian(
                    mean=gaussian.mean, variance=gaussian.variance + inflation, weight=1.0
                )
            contributions[label] = weight * gaussian.pdf(query)
        return contributions

    def _class_count(self, label: Hashable) -> float:
        return self.priors[label] * self._total_objects

    # -- anytime classification --------------------------------------------------------------------------
    def classify_anytime(
        self, query: Sequence[float] | np.ndarray, max_nodes: int
    ) -> AnytimeClassification:
        """Anytime classification; one descent refines every class in parallel.

        Returns the same :class:`AnytimeClassification` record as the
        multi-tree classifier so evaluation code can treat both uniformly.
        """
        if not self.is_fitted:
            raise ValueError("classifier has not been fitted")
        assert self.tree is not None
        query = np.asarray(query, dtype=float)
        root = self.tree.root
        items: List[_ClassAwareItem] = []
        order = 0
        for entry in root.entries:
            level = root.level - 1 if isinstance(entry, DirectoryEntry) else -1
            items.append(
                _ClassAwareItem(
                    entry=entry,
                    level=level,
                    order=order,
                    contributions=self._entry_contributions(entry, query),
                )
            )
            order += 1

        result = AnytimeClassification(query=query)

        def record() -> None:
            posterior: Dict[Hashable, float] = {label: 0.0 for label in self.priors}
            for item in items:
                for label, value in item.contributions.items():
                    posterior[label] += value
            posterior = {label: self.priors[label] * value for label, value in posterior.items()}
            best = max(sorted(posterior.keys(), key=repr), key=lambda label: posterior[label])
            result.predictions.append(best)
            # This engine accumulates per-class contributions in linear space,
            # so the recorded log view is derived (it matches the multi-tree
            # record contract but cannot recover values once they underflow);
            # result.posteriors is re-derived from it on access.
            result.log_posteriors.append(
                {
                    label: math.log(value) if value > 0 else -math.inf
                    for label, value in posterior.items()
                }
            )

        record()
        rows = _ItemRows(items, query)
        for _ in range(max_nodes):
            if not any(item.is_refinable for item in items):
                break
            chosen = items.pop(self.descent.choose(rows))
            child = chosen.entry.child  # type: ignore[union-attr]
            for entry in child.entries:
                level = child.level - 1 if isinstance(entry, DirectoryEntry) else -1
                items.append(
                    _ClassAwareItem(
                        entry=entry,
                        level=level,
                        order=order,
                        contributions=self._entry_contributions(entry, query),
                    )
                )
                order += 1
            result.nodes_read += 1
            record()
        return result

    def predict(self, query: Sequence[float] | np.ndarray, node_budget: Optional[int] = None) -> Hashable:
        """Predict a single label with a given node budget (full refinement if None)."""
        if node_budget is None:
            assert self.tree is not None
            node_budget = self.tree.node_count()
        return self.classify_anytime(query, max_nodes=node_budget).final_prediction

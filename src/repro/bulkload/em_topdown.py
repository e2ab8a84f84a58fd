"""EM top-down bulk loading — the paper's best-performing strategy (§3.1).

"We start by applying the EM algorithm to the complete training set.  The
desired number M of resulting clusters is always set to the fanout which is
again given through the page size.  If the EM returns less than m clusters,
the biggest resulting cluster is split again such that the total number of
resulting clusters is at most M.  In the rare case that the EM returns a
single cluster, this cluster is split by picking the two farthest elements and
assigning the remaining elements to the closest of the two.  Finally, if a
resulting cluster contains more than L objects (the capacity of a leaf node),
the cluster is recursively split using the procedure described above.
Otherwise the items contained in that cluster are stored in a leaf node, its
corresponding entry is calculated and returned to build the Bayes tree.

The EM approach may result in an unbalanced tree, which differs from the
primary Bayes tree idea.  However ... this is not a drawback but even leads to
better anytime classification performance."
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.bayes_tree import finite_points
from ..index.entry import DirectoryEntry
from ..index.node import Node
from ..index.rstar import RStarTree
from ..stats.em import fit_gmm, hard_assignments
from ..core.config import BayesTreeConfig
from .base import BulkLoader

__all__ = ["EMTopDownBulkLoader"]


class EMTopDownBulkLoader(BulkLoader):
    """Recursive EM clustering of the training set into a Bayes tree."""

    name = "em_topdown"

    def __init__(
        self,
        config: Optional[BayesTreeConfig] = None,
        random_state: Optional[int] = None,
        max_em_iterations: int = 50,
    ) -> None:
        super().__init__(config)
        self.random_state = random_state
        self.max_em_iterations = max_em_iterations

    # -- splitting helpers -------------------------------------------------------------------
    def _split_single_cluster(self, points: np.ndarray) -> List[np.ndarray]:
        """Paper fallback: split by the two farthest elements.

        "In the rare case that the EM returns a single cluster, this cluster
        is split by picking the two farthest elements and assigning the
        remaining elements to the closest of the two."
        """
        if points.shape[0] <= 1:
            return [np.arange(points.shape[0])]
        # The exact farthest pair costs O(n^2); approximate it by taking the
        # two points farthest from the centroid in opposite directions, which
        # is the standard linear-time surrogate and sufficient here.
        centroid = points.mean(axis=0)
        distances = np.linalg.norm(points - centroid, axis=1)
        first = int(np.argmax(distances))
        second = int(np.argmax(np.linalg.norm(points - points[first], axis=1)))
        if first == second:
            second = (first + 1) % points.shape[0]
        to_first = np.linalg.norm(points - points[first], axis=1)
        to_second = np.linalg.norm(points - points[second], axis=1)
        assignment = to_first <= to_second
        group_a = np.where(assignment)[0]
        group_b = np.where(~assignment)[0]
        if len(group_a) == 0 or len(group_b) == 0:
            half = points.shape[0] // 2
            return [np.arange(half), np.arange(half, points.shape[0])]
        return [group_a, group_b]

    def _merge_small_groups(self, points: np.ndarray, groups: List[np.ndarray]) -> List[np.ndarray]:
        """Merge clusters smaller than the minimum leaf fill into their nearest sibling.

        EM occasionally produces clusters of one or two objects; keeping them
        would create directory entries whose cluster features have (near) zero
        variance, i.e. degenerate Gaussian summaries.  Merging them into the
        closest sibling keeps every subtree at a sensible size.
        """
        minimum = max(2, self.config.tree.leaf_min)
        groups = sorted(groups, key=len)
        merged: List[np.ndarray] = []
        small: List[np.ndarray] = []
        for group in groups:
            (small if len(group) < minimum else merged).append(group)
        if not merged:
            # Everything is tiny: collapse to a single group.
            return [np.concatenate(groups)] if len(groups) > 1 else groups
        centroids = [points[group].mean(axis=0) for group in merged]
        for group in small:
            center = points[group].mean(axis=0)
            nearest = int(np.argmin([np.linalg.norm(center - c) for c in centroids]))
            merged[nearest] = np.concatenate([merged[nearest], group])
            centroids[nearest] = points[merged[nearest]].mean(axis=0)
        return merged

    def _cluster_indices(self, points: np.ndarray, rng: np.random.Generator) -> List[np.ndarray]:
        """Partition point indices into at most ``max_fanout`` clusters via EM."""
        max_fanout = self.config.tree.max_fanout
        result = fit_gmm(points, max_fanout, rng, max_iterations=self.max_em_iterations)
        labels = hard_assignments(result)
        groups = [np.where(labels == j)[0] for j in range(len(result.mixture))]
        groups = [g for g in groups if len(g) > 0]
        groups = self._merge_small_groups(points, groups)

        if len(groups) == 1:
            return self._split_single_cluster(points)

        # "If the EM returns less than m clusters, the biggest resulting
        # cluster is split again such that the total number of resulting
        # clusters is at most M."
        min_fanout = self.config.tree.min_fanout
        while len(groups) < min_fanout:
            biggest = max(range(len(groups)), key=lambda i: len(groups[i]))
            indices = groups.pop(biggest)
            if len(indices) < 2:
                groups.append(indices)
                break
            sub = self._split_single_cluster(points[indices])
            for part in sub:
                groups.append(indices[part])
            if len(groups) > max_fanout:
                break
        return groups[:max_fanout] + (
            [np.concatenate(groups[max_fanout:])] if len(groups) > max_fanout else []
        )

    # -- recursive construction -----------------------------------------------------------------
    def _build_node(self, points: np.ndarray, label: Optional[object], rng: np.random.Generator) -> Node:
        """Recursively cluster ``points`` into a subtree; returns its root node."""
        leaf_capacity = self.config.tree.leaf_capacity
        if points.shape[0] <= leaf_capacity:
            return Node(level=0, entries=self._make_leaf_entries(points, label))

        groups = self._cluster_indices(points, rng)
        if len(groups) <= 1:
            # Clustering failed to partition (e.g. all points identical):
            # fall back to chunking into leaves to guarantee termination.
            children = [
                Node(level=0, entries=self._make_leaf_entries(points[i : i + leaf_capacity], label))
                for i in range(0, points.shape[0], leaf_capacity)
            ]
        else:
            children = [self._build_node(points[group], label, rng) for group in groups]

        level = max(child.level for child in children) + 1
        return Node(level=level, entries=[DirectoryEntry.for_node(child) for child in children])

    def build_index(self, points: np.ndarray, label: Optional[object] = None) -> RStarTree:
        points = finite_points(points)
        rng = np.random.default_rng(self.random_state)
        root = self._build_node(points, label, rng)
        return RStarTree.from_root(root, dimension=points.shape[1], params=self.config.tree)

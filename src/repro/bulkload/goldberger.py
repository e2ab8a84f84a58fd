"""Goldberger mixture-reduction bulk loading (paper §3.1, Def. 4).

The bulk load builds the tree bottom-up, one directory level at a time.  Given
the fine mixture ``f`` formed by the entries of the current level (initially
one kernel estimator per training item), a coarser mixture ``g`` is fitted by
iterating the two Goldberger & Roweis (NIPS 2004) steps

1. *regroup* — assign every fine component to its KL-closest coarse component,
2. *refit*   — recompute weight, mean and covariance of every coarse component
   from its assigned fine components,

until the matching distance ``d(f, g) = sum_i alpha_i min_j KL(f_i, g_j)``
stops decreasing.  The initial mapping assigns ``0.75 * M`` consecutive fine
components (in z-curve order of their means) to one coarse component.  The
resulting groups become Bayes tree nodes; a post-processing step enforces the
fanout bounds by splitting overfull groups along their highest-variance
dimension and merging underfull groups with their KL-closest neighbour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.bayes_tree import finite_points
from ..curves.zorder import z_order
from ..index.entry import DirectoryEntry, LeafEntry
from ..index.node import AnyEntry, Node
from ..index.rstar import RStarTree
from ..stats.gaussian import MIN_VARIANCE, Gaussian
from ..stats.kl import kl_gaussian
from ..core.config import BayesTreeConfig
from .base import BulkLoader

__all__ = ["GoldbergerBulkLoader"]


@dataclass
class _Component:
    """A fine-mixture component: weight/mean/variance plus the tree entry it represents."""

    entry: AnyEntry
    weight: float
    mean: np.ndarray
    variance: np.ndarray

    def as_gaussian(self) -> Gaussian:
        return Gaussian(mean=self.mean, variance=self.variance, weight=self.weight)


@dataclass
class _Group:
    """A coarse-mixture component with its member fine components."""

    members: List[_Component]
    weight: float = 0.0
    mean: np.ndarray | None = None
    variance: np.ndarray | None = None

    def refit(self) -> None:
        """The Goldberger *refit* step over the current members."""
        if not self.members:
            raise ValueError("cannot refit an empty group")
        weights = np.array([m.weight for m in self.members])
        total = weights.sum()
        means = np.array([m.mean for m in self.members])
        variances = np.array([m.variance for m in self.members])
        mean = (weights[:, None] * means).sum(axis=0) / total
        variance = (
            weights[:, None] * (variances + (means - mean) ** 2)
        ).sum(axis=0) / total
        self.weight = float(total)
        self.mean = mean
        self.variance = np.maximum(variance, MIN_VARIANCE)

    def as_gaussian(self) -> Gaussian:
        assert self.mean is not None and self.variance is not None
        return Gaussian(mean=self.mean, variance=self.variance, weight=self.weight)


class GoldbergerBulkLoader(BulkLoader):
    """Bottom-up mixture reduction bulk load based on Goldberger & Roweis."""

    name = "goldberger"

    def __init__(
        self,
        config: Optional[BayesTreeConfig] = None,
        max_iterations: int = 20,
        epsilon: float = 0.05,
        bits: int = 10,
        fill_fraction: float = 0.75,
    ) -> None:
        super().__init__(config)
        if max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not (0.1 <= fill_fraction <= 1.0):
            raise ValueError("fill_fraction must be in [0.1, 1.0]")
        self.max_iterations = max_iterations
        self.epsilon = epsilon
        self.bits = bits
        self.fill_fraction = fill_fraction

    # -- one reduction level ---------------------------------------------------------------------
    def _initial_groups(self, components: List[_Component], per_group: int) -> List[_Group]:
        """Initial mapping pi_0: consecutive runs in z-curve order of the means."""
        means = np.array([c.mean for c in components])
        order = z_order(means, bits=self.bits)
        ordered = [components[i] for i in order]
        groups = [
            _Group(members=ordered[start : start + per_group])
            for start in range(0, len(ordered), per_group)
        ]
        groups = [g for g in groups if g.members]
        # Avoid a trailing group with a single member when possible.
        if len(groups) >= 2 and len(groups[-1].members) == 1:
            groups[-2].members.extend(groups[-1].members)
            groups.pop()
        for group in groups:
            group.refit()
        return groups

    def _matching_distance(self, components: Sequence[_Component], groups: Sequence[_Group]) -> float:
        """d(f, g) of paper Definition 4."""
        total = 0.0
        for component in components:
            best = min(kl_gaussian(component.as_gaussian(), group.as_gaussian()) for group in groups)
            total += component.weight * best
        return total

    def _regroup(self, components: Sequence[_Component], groups: List[_Group]) -> List[_Group]:
        """The Goldberger *regroup* step; empty groups are dropped."""
        gaussians = [group.as_gaussian() for group in groups]
        assignments: List[List[_Component]] = [[] for _ in groups]
        for component in components:
            divergences = [kl_gaussian(component.as_gaussian(), g) for g in gaussians]
            assignments[int(np.argmin(divergences))].append(component)
        new_groups = [_Group(members=members) for members in assignments if members]
        for group in new_groups:
            group.refit()
        return new_groups

    def _split_group(self, group: _Group) -> List[_Group]:
        """Split an overfull group along its highest-variance dimension.

        "Two representatives are computed by moving the mean along the
        dimension with the highest variance by an epsilon in both directions.
        A Gaussian is placed over the two representatives and the mapping of
        the entries to the representatives is computed as in the regroup
        step."
        """
        assert group.mean is not None and group.variance is not None
        axis = int(np.argmax(group.variance))
        shift = self.epsilon * max(math.sqrt(float(group.variance[axis])), 1e-6)
        offset = np.zeros_like(group.mean)
        offset[axis] = shift
        representatives = [
            Gaussian(mean=group.mean - offset, variance=group.variance, weight=1.0),
            Gaussian(mean=group.mean + offset, variance=group.variance, weight=1.0),
        ]
        halves: List[List[_Component]] = [[], []]
        for component in group.members:
            divergences = [kl_gaussian(component.as_gaussian(), rep) for rep in representatives]
            halves[int(np.argmin(divergences))].append(component)
        if not halves[0] or not halves[1]:
            # KL could not separate them (identical members); split by count.
            middle = len(group.members) // 2
            halves = [group.members[:middle], group.members[middle:]]
        result = [_Group(members=half) for half in halves if half]
        for new_group in result:
            new_group.refit()
        return result

    def _enforce_fanout(self, groups: List[_Group], capacity: int, minimum: int) -> List[_Group]:
        """Post-processing: split overfull groups, merge underfull ones."""
        # Split until every group fits the capacity.
        work = list(groups)
        result: List[_Group] = []
        while work:
            group = work.pop()
            if len(group.members) > capacity:
                work.extend(self._split_group(group))
            else:
                result.append(group)

        # Merge groups that are too small with their KL-closest neighbour.
        if len(result) <= 1:
            return result
        merged = True
        while merged and len(result) > 1:
            merged = False
            for i, group in enumerate(result):
                if len(group.members) >= minimum:
                    continue
                others = [g for j, g in enumerate(result) if j != i]
                anchor = group.as_gaussian()
                closest = min(
                    others,
                    key=lambda other, anchor=anchor: kl_gaussian(anchor, other.as_gaussian()),
                )
                closest.members.extend(group.members)
                closest.refit()
                result.pop(i)
                merged = True
                break
        # Merging may have produced an overfull group again; split once more
        # (without further merging to guarantee termination).
        final: List[_Group] = []
        for group in result:
            if len(group.members) > capacity:
                final.extend(self._split_group(group))
            else:
                final.append(group)
        return final

    def _reduce_level(
        self, components: List[_Component], capacity: int, minimum: int
    ) -> List[_Group]:
        """Fit the coarse mixture for one directory level and return its groups."""
        per_group = max(2, int(round(self.fill_fraction * capacity)))
        groups = self._initial_groups(components, per_group)
        if len(groups) <= 1:
            return self._enforce_fanout(groups, capacity, minimum)

        previous = self._matching_distance(components, groups)
        for _ in range(self.max_iterations):
            groups = self._regroup(components, groups)
            current = self._matching_distance(components, groups)
            if current >= previous - 1e-12:
                break
            previous = current
        return self._enforce_fanout(groups, capacity, minimum)

    # -- full construction ------------------------------------------------------------------------------
    def _leaf_components(self, points: np.ndarray, label: Optional[object]) -> List[_Component]:
        """Fine mixture at the bottom: one kernel estimator per training item."""
        from ..stats.kernel import silverman_bandwidth

        n = points.shape[0]
        if n > 1:
            bandwidth = silverman_bandwidth(points) * self.config.bandwidth_scale
        else:
            bandwidth = np.ones(points.shape[1])
        variance = np.maximum(bandwidth ** 2, MIN_VARIANCE)
        components: List[_Component] = []
        for point in points:
            entry = LeafEntry(point=point, label=label, kernel=self.config.kernel)
            components.append(
                _Component(entry=entry, weight=1.0 / n, mean=point.astype(float), variance=variance.copy())
            )
        return components

    def build_index(self, points: np.ndarray, label: Optional[object] = None) -> RStarTree:
        points = finite_points(points)
        params = self.config.tree

        components = self._leaf_components(points, label)
        level = 0
        capacity, minimum = params.leaf_capacity, params.leaf_min

        while len(components) > params.max_fanout:
            groups = self._reduce_level(components, capacity, minimum)
            nodes = [
                Node(level=level, entries=[member.entry for member in group.members])
                for group in groups
            ]
            next_components: List[_Component] = []
            for node, group in zip(nodes, groups):
                entry = DirectoryEntry.for_node(node)
                assert group.mean is not None and group.variance is not None
                next_components.append(
                    _Component(
                        entry=entry,
                        weight=group.weight,
                        mean=entry.cluster_feature.mean(),
                        variance=np.maximum(entry.cluster_feature.variance(), MIN_VARIANCE),
                    )
                )
            components = next_components
            level += 1
            capacity, minimum = params.max_fanout, params.min_fanout
            if len(nodes) == 1:
                break

        if level == 0:
            root = Node(level=0, entries=[c.entry for c in components])
        elif len(components) == 1:
            root = components[0].entry.child  # type: ignore[union-attr]
        else:
            root = Node(level=level, entries=[c.entry for c in components])
        return RStarTree.from_root(root, dimension=points.shape[1], params=params)

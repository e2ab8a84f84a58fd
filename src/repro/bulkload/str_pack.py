"""Sort-Tile-Recursive (STR) bulk loading.

Mentioned in paper §3.1 among the traditional R-tree bulk loads ("other
partitioning approaches, e.g. sort-tile-recursive [14]", Leutenegger et al.,
ICDE 1997).  STR sorts the items by the first dimension, cuts them into
vertical slabs, sorts each slab by the next dimension, and recurses until the
items are tiled into pages of the leaf capacity.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..core.bayes_tree import finite_points
from ..index.entry import DirectoryEntry
from ..index.rstar import RStarTree
from .base import BulkLoader, pack_entries_into_nodes, stack_levels

__all__ = ["STRBulkLoader"]


def _str_order(points: np.ndarray, capacity: int) -> List[int]:
    """Return the STR tiling order of the given points."""

    def recurse(indices: np.ndarray, dimension: int) -> List[int]:
        if len(indices) <= capacity or dimension >= points.shape[1]:
            return list(indices)
        pages = math.ceil(len(indices) / capacity)
        # Number of slabs along this dimension: pages^(1/remaining_dims)
        remaining = points.shape[1] - dimension
        slabs = max(1, math.ceil(pages ** (1.0 / remaining)))
        slab_size = math.ceil(len(indices) / slabs)
        ordered = indices[np.argsort(points[indices, dimension], kind="stable")]
        result: List[int] = []
        for start in range(0, len(ordered), slab_size):
            result.extend(recurse(ordered[start : start + slab_size], dimension + 1))
        return result

    return recurse(np.arange(points.shape[0]), 0)


class STRBulkLoader(BulkLoader):
    """Sort-Tile-Recursive packing of the leaf level, curve-free directory on top."""

    name = "str"

    def _order_entries(self, entries: List[DirectoryEntry]) -> List[DirectoryEntry]:
        means = np.array([entry.cluster_feature.mean() for entry in entries])
        order = _str_order(means, self.config.tree.max_fanout)
        return [entries[i] for i in order]

    def build_index(self, points: np.ndarray, label: Optional[object] = None) -> RStarTree:
        points = finite_points(points)
        params = self.config.tree
        order = _str_order(points, params.leaf_capacity)
        leaf_entries = self._make_leaf_entries(points[order], label)
        leaf_nodes = pack_entries_into_nodes(
            leaf_entries, level=0, capacity=params.leaf_capacity, minimum=params.leaf_min
        )
        root = stack_levels(leaf_nodes, params, self._order_entries)
        return RStarTree.from_root(root, dimension=points.shape[1], params=params)

"""Z-curve (Morton order) bulk loading.

One of the "traditional R-tree bulk loading algorithms, i.e. we implemented
space filling curves like Hilbert curve or z-curve" (paper §3.1).  Identical
to the Hilbert bulk load except for the ordering key.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.bayes_tree import finite_points
from ..curves.zorder import z_order
from ..index.entry import DirectoryEntry
from ..index.rstar import RStarTree
from ..core.config import BayesTreeConfig
from .base import BulkLoader, pack_entries_into_nodes, stack_levels

__all__ = ["ZCurveBulkLoader"]


class ZCurveBulkLoader(BulkLoader):
    """Bottom-up packing along the Z-order (Morton) curve."""

    name = "zcurve"

    def __init__(self, config: Optional[BayesTreeConfig] = None, bits: int = 10) -> None:
        super().__init__(config)
        if not (1 <= bits <= 32):
            raise ValueError("bits must be between 1 and 32")
        self.bits = bits

    def _order_entries(self, entries: List[DirectoryEntry]) -> List[DirectoryEntry]:
        means = np.array([entry.cluster_feature.mean() for entry in entries])
        order = z_order(means, bits=self.bits)
        return [entries[i] for i in order]

    def build_index(self, points: np.ndarray, label: Optional[object] = None) -> RStarTree:
        points = finite_points(points)
        params = self.config.tree
        order = z_order(points, bits=self.bits)
        leaf_entries = self._make_leaf_entries(points[order], label)
        leaf_nodes = pack_entries_into_nodes(
            leaf_entries, level=0, capacity=params.leaf_capacity, minimum=params.leaf_min
        )
        root = stack_levels(leaf_nodes, params, self._order_entries)
        return RStarTree.from_root(root, dimension=points.shape[1], params=params)

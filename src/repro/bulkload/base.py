"""Shared machinery for Bayes tree bulk loading strategies (paper §3).

Every bulk loader takes the complete training set of one class and builds a
Bayes tree in one go, instead of inserting the objects one by one (the
*iterative insertion* the paper compares against).  The loaders differ in how
they group objects into leaf nodes and how they build the directory on top;
what they share is captured here:

* the :class:`BulkLoader` interface (``build_index`` / ``build_tree``),
* helpers that turn groups of entries into nodes with correct MBRs and
  cluster features,
* a bottom-up packer that stacks directory levels until a single root is
  left, used by all ordering-based loaders (Hilbert, Z-curve, STR).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.bayes_tree import BayesTree
from ..core.config import BayesTreeConfig
from ..index.entry import DirectoryEntry, LeafEntry
from ..index.node import AnyEntry, Node
from ..index.rstar import RStarTree, TreeParameters

__all__ = ["BulkLoader", "chunk_sizes", "pack_entries_into_nodes", "stack_levels"]


def chunk_sizes(total: int, capacity: int, minimum: int) -> List[int]:
    """Split ``total`` items into chunks of at most ``capacity``, each >= ``minimum``.

    The classic packing problem of bulk loading: filling pages greedily would
    leave a last page that may be underfull, so the final two chunks are
    rebalanced when necessary.  ``total`` is assumed to be >= 1; a single
    chunk smaller than ``minimum`` is returned as-is (a root may be small).
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if capacity < 1 or minimum < 1 or minimum > capacity:
        raise ValueError("need 1 <= minimum <= capacity")
    if total <= capacity:
        return [total]
    sizes: List[int] = []
    remaining = total
    while remaining > 0:
        if remaining <= capacity:
            sizes.append(remaining)
            remaining = 0
        else:
            sizes.append(capacity)
            remaining -= capacity
    if len(sizes) >= 2 and sizes[-1] < minimum:
        deficit = minimum - sizes[-1]
        sizes[-2] -= deficit
        sizes[-1] += deficit
    return sizes


def pack_entries_into_nodes(
    entries: Sequence[AnyEntry], level: int, capacity: int, minimum: int
) -> List[Node]:
    """Pack an ordered entry sequence into nodes of the given level."""
    entries = list(entries)
    nodes: List[Node] = []
    start = 0
    for size in chunk_sizes(len(entries), capacity, minimum):
        nodes.append(Node(level=level, entries=entries[start : start + size]))
        start += size
    return nodes


def stack_levels(
    leaf_nodes: Sequence[Node],
    params: TreeParameters,
    order_nodes: Callable[[List[DirectoryEntry]], List[DirectoryEntry]],
) -> Node:
    """Build directory levels bottom-up until a single root node remains.

    ``order_nodes`` re-orders the directory entries of each new level (e.g. by
    the space-filling curve value of their means, as the paper's Hilbert bulk
    load does: "these steps are repeated using the mean vectors as
    representatives until all entries fit into one node, the root node").
    """
    nodes = list(leaf_nodes)
    level = 1
    while len(nodes) > 1:
        entries = [DirectoryEntry.for_node(node) for node in nodes]
        entries = order_nodes(entries)
        nodes = pack_entries_into_nodes(entries, level, params.max_fanout, params.min_fanout)
        level += 1
    return nodes[0]


class BulkLoader(ABC):
    """Interface of all Bayes tree bulk loading strategies."""

    #: Short identifier used in benchmark tables (matches the paper's names).
    name: str = "abstract"

    def __init__(self, config: Optional[BayesTreeConfig] = None) -> None:
        self.config = config or BayesTreeConfig()

    @abstractmethod
    def build_index(self, points: np.ndarray, label: Optional[object] = None) -> RStarTree:
        """Build the R*-tree index over the class's training points."""

    def build_tree(self, points: np.ndarray, label: Optional[object] = None) -> BayesTree:
        """Build a complete Bayes tree (index + kernel bandwidths) for one class."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        index = self.build_index(points, label=label)
        tree = BayesTree(dimension=points.shape[1], config=self.config)
        tree.adopt_index(index)
        return tree

    # -- shared helpers -----------------------------------------------------------------------
    def _make_leaf_entries(self, points: np.ndarray, label: Optional[object]) -> List[LeafEntry]:
        return [LeafEntry(point=point, label=label) for point in points]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

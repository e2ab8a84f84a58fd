"""Nodes of the Bayes tree / R*-tree substrate.

A node is either a leaf (stores :class:`LeafEntry` observations, i.e. the
kernels) or an inner node (stores :class:`DirectoryEntry` summaries of its
child nodes).  The tree is balanced: all leaves are at level 0 and the level
of an inner node is one more than the level of its children (paper Def. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Union

import numpy as np

from .cluster_feature import ClusterFeature
from .decay import DecayClock
from .entry import DirectoryEntry, LeafEntry
from .mbr import MBR

__all__ = ["Node", "AnyEntry"]

AnyEntry = Union[LeafEntry, DirectoryEntry]


@dataclass(eq=False)
class Node:
    """A Bayes tree node holding either observations or directory entries."""

    level: int
    entries: List[AnyEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Stacked (lowers, uppers) arrays over this node's entry MBRs, lazily
        # built and maintained by the R* insertion machinery (ChooseSubtree
        # hot path); None means "rebuild from the entries on next use".
        self._bounds_cache = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[AnyEntry]:
        return iter(self.entries)

    # -- aggregates ------------------------------------------------------------------
    def compute_mbr(self) -> MBR:
        """MBR over all entries of this node."""
        if not self.entries:
            raise ValueError("cannot compute the MBR of an empty node")
        if self.is_leaf:
            return MBR.from_points(np.stack([entry.point for entry in self.entries]))
        return MBR.union_of(entry.mbr for entry in self.entries)

    def compute_cluster_feature(self, clock: Optional[DecayClock] = None) -> ClusterFeature:
        """Cluster feature over all entries of this node.

        With an enabled ``clock``, every entry is first aged to ``clock.now``
        and the result is the decayed ``(n, LS, SS)`` view at that common
        time: leaf observations contribute their decayed weights, directory
        summaries are scaled — additivity holds because all summands carry
        the same logical timestamp.
        """
        if not self.entries:
            raise ValueError("cannot compute the cluster feature of an empty node")
        decayed = clock is not None and clock.enabled
        if self.is_leaf:
            if not decayed:
                return ClusterFeature.from_points(np.stack([entry.point for entry in self.entries]))
            for entry in self.entries:
                entry.decay_to(clock.now, clock.decay_rate)
            return ClusterFeature.from_weighted_points(
                np.stack([entry.point for entry in self.entries]),
                np.array([entry.weight for entry in self.entries]),
            )
        if decayed:
            for entry in self.entries:
                entry.decay_to(clock.now, clock.decay_rate)
        return ClusterFeature.sum_of(entry.cluster_feature for entry in self.entries)

    @property
    def n_objects(self) -> float:
        """Total number of observations stored below this node."""
        return float(sum(entry.n_objects for entry in self.entries))

    # -- traversal -------------------------------------------------------------------
    def iter_leaf_entries(self) -> Iterator[LeafEntry]:
        """Yield every observation stored in the subtree rooted at this node."""
        if self.is_leaf:
            for entry in self.entries:
                yield entry  # type: ignore[misc]
        else:
            for entry in self.entries:
                yield from entry.child.iter_leaf_entries()  # type: ignore[union-attr]

    def iter_nodes(self) -> Iterator["Node"]:
        """Yield this node and all its descendants (pre-order)."""
        yield self
        if not self.is_leaf:
            for entry in self.entries:
                yield from entry.child.iter_nodes()  # type: ignore[union-attr]

    def height(self) -> int:
        """Number of levels in the subtree rooted here (leaf = 1)."""
        if self.is_leaf:
            return 1
        return 1 + max(entry.child.height() for entry in self.entries)  # type: ignore[union-attr]

    def check_invariants(
        self,
        *,
        min_fanout: int,
        max_fanout: int,
        leaf_min: int | None = None,
        leaf_max: int | None = None,
        is_root: bool = False,
        enforce_fanout: bool = True,
        require_balance: bool = True,
        clock: Optional[DecayClock] = None,
    ) -> None:
        """Raise ``AssertionError`` if structural invariants are violated.

        Checks (used heavily by the test-suite):

        * fanout / leaf capacity bounds (relaxed for the root, and optional,
          because some bulk loaders deliberately produce unbalanced fanouts),
        * entry MBRs contain their child subtrees,
        * levels decrease by one towards the leaves (balance; optional because
          the EM top-down bulk load may build unbalanced trees, paper §3.1),
        * cluster features add up along the hierarchy — for decayed trees
          (an enabled ``clock``) everything is aged to the common logical
          time ``clock.now`` first, under which additivity is exact again.
        """
        leaf_min = min_fanout if leaf_min is None else leaf_min
        leaf_max = max_fanout if leaf_max is None else leaf_max
        lower, upper = (leaf_min, leaf_max) if self.is_leaf else (min_fanout, max_fanout)
        if enforce_fanout and not is_root and not (lower <= len(self.entries) <= upper):
            raise AssertionError(
                f"node at level {self.level} has {len(self.entries)} entries, "
                f"expected between {lower} and {upper}"
            )
        if is_root and len(self.entries) == 0:
            raise AssertionError("root node must contain at least one entry")
        if enforce_fanout and is_root and len(self.entries) > upper:
            raise AssertionError(
                f"root node has {len(self.entries)} entries, expected at most {upper}"
            )
        if self.is_leaf:
            return
        decayed = clock is not None and clock.enabled
        for entry in self.entries:
            child = entry.child  # type: ignore[union-attr]
            if require_balance and child.level != self.level - 1:
                raise AssertionError("child level must be exactly one below the parent level")
            if not require_balance and child.level >= self.level:
                raise AssertionError("child level must be below the parent level")
            child_mbr = child.compute_mbr()
            if not entry.mbr.contains(child_mbr):
                raise AssertionError("entry MBR does not contain the child subtree")
            if decayed:
                entry.decay_to(clock.now, clock.decay_rate)
            child_cf = child.compute_cluster_feature(clock=clock)
            if not np.isclose(child_cf.n, entry.cluster_feature.n):
                raise AssertionError("entry cluster feature count is stale")
            if not np.allclose(child_cf.linear_sum, entry.cluster_feature.linear_sum, atol=1e-6):
                raise AssertionError("entry cluster feature linear sum is stale")
            child.check_invariants(
                min_fanout=min_fanout,
                max_fanout=max_fanout,
                leaf_min=leaf_min,
                leaf_max=leaf_max,
                enforce_fanout=enforce_fanout,
                require_balance=require_balance,
                clock=clock,
            )

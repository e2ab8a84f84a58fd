"""R*-tree with cluster features — the index substrate of the Bayes tree.

This is the balanced multidimensional index of paper Definition 2: inner nodes
hold between ``m`` and ``M`` directory entries, leaf nodes between ``l`` and
``L`` observations, every entry carries the MBR, subtree pointer and cluster
feature of Definition 1, and all leaves are on the same level.

Insertion follows the R*-tree (Beckmann et al., 1990):

* *ChooseSubtree* descends into the child whose MBR needs the least overlap
  enlargement (at the level above the leaves) or the least area enlargement
  (higher up), with ties broken by area.
* Overflows are first handled by *forced reinsertion* of the entries farthest
  from the node's center (once per level per insertion), then by the R*
  topological split.
* Cluster features and MBRs are maintained along the full insertion path, so
  every directory entry always summarises its subtree exactly — that property
  is what makes the frontier mixture models of the Bayes tree consistent.

Deletion follows Guttman's R-tree *Delete/CondenseTree* (SIGMOD 1984):
:meth:`RStarTree.remove_leaf_entries` drops stored observations from their
leaves, dissolves nodes left below their minimum fill and re-inserts their
entries at their own level, refreshes the summaries along the changed paths
only, and shortens the root.  The expiry sweep of decayed Bayes trees deletes
its stale kernels this way.

The class is deliberately agnostic of classification; the Bayes tree in
``repro.core`` wraps it with kernels, descent strategies and the anytime
classifier logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cluster_feature import ClusterFeature
from .decay import DecayClock
from .entry import DirectoryEntry, LeafEntry
from .mbr import MBR
from .node import AnyEntry, Node
from .split import rstar_split

__all__ = ["RStarTree", "TreeParameters"]


@dataclass(frozen=True)
class TreeParameters:
    """Fanout and capacity parameters (m, M, l, L) of paper Definition 2."""

    max_fanout: int = 8
    min_fanout: int = 3
    leaf_capacity: int = 8
    leaf_min: int = 3
    reinsert_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.max_fanout < 2:
            raise ValueError("max_fanout must be at least 2")
        if not (1 <= self.min_fanout <= self.max_fanout // 2):
            raise ValueError("min_fanout must satisfy 1 <= m <= M/2")
        if self.leaf_capacity < 2:
            raise ValueError("leaf_capacity must be at least 2")
        if not (1 <= self.leaf_min <= self.leaf_capacity // 2):
            raise ValueError("leaf_min must satisfy 1 <= l <= L/2")
        if not (0.0 <= self.reinsert_fraction < 1.0):
            raise ValueError("reinsert_fraction must be in [0, 1)")

    def capacity(self, node: Node) -> Tuple[int, int]:
        """(min, max) number of entries allowed in ``node``."""
        if node.is_leaf:
            return self.leaf_min, self.leaf_capacity
        return self.min_fanout, self.max_fanout


class RStarTree:
    """Balanced R*-tree over weighted points with cluster-feature maintenance."""

    def __init__(
        self,
        dimension: int,
        params: TreeParameters | None = None,
        clock: Optional[DecayClock] = None,
    ) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.params = params or TreeParameters()
        #: Shared logical clock driving exponential decay (paper §4.2); None
        #: (or a zero rate) keeps the classic never-forgetting tree.  The
        #: owning Bayes tree shares this object so insertions and queries
        #: agree on the current logical time.
        self.clock = clock
        self.root: Node = Node(level=0)
        self._size = 0
        #: Monotonically increasing structure tag, bumped by every insertion;
        #: callers (e.g. the Bayes tree's packed-parameter caches) use it to
        #: detect that entries or summaries may have changed.
        self.version = 0

    @property
    def _decaying(self) -> bool:
        """True when a clock with a positive decay rate is attached."""
        return self.clock is not None and self.clock.enabled

    # -- basic properties -------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (a tree holding only the empty root has height 1)."""
        return self.root.level + 1

    def is_empty(self) -> bool:
        return self._size == 0

    def iter_leaf_entries(self) -> Iterator[LeafEntry]:
        return self.root.iter_leaf_entries()

    def iter_nodes(self) -> Iterator[Node]:
        return self.root.iter_nodes()

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    # -- insertion ----------------------------------------------------------------------
    def insert(
        self,
        point: Sequence[float] | np.ndarray,
        label: Optional[object] = None,
    ) -> LeafEntry:
        """Insert an observation and return its leaf entry.

        The entry is stamped with the clock's current logical time, so its
        weight decays as the clock advances (no-op without a clock).
        """
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dimension,):
            raise ValueError(f"point must have shape ({self.dimension},), got {point.shape}")
        entry = LeafEntry(
            point=point,
            label=label,
            timestamp=0.0 if self.clock is None else self.clock.now,
        )
        self._insert_entry(entry, target_level=0, reinserted_levels=set())
        self._size += 1
        self.version += 1
        return entry

    def extend(self, points: np.ndarray, labels: Optional[Sequence[object]] = None) -> None:
        """Insert several observations one by one (the paper's iterative insertion)."""
        points = np.asarray(points, dtype=float)
        for i, point in enumerate(points):
            self.insert(point, label=None if labels is None else labels[i])

    # The insertion machinery -------------------------------------------------------------
    def _insert_entry(self, entry: AnyEntry, target_level: int, reinserted_levels: set) -> None:
        if self._decaying:
            # Freshly inserted points have factor 1; forced-reinserted or
            # expiry-surviving entries are aged so their summaries carry the
            # same logical timestamp as the path CFs they are merged into.
            entry.decay_to(self.clock.now, self.clock.decay_rate)
        path = self._choose_path(entry, target_level)
        node = path[-1][0]
        node.entries.append(entry)
        node._bounds_cache = None
        self._adjust_path(path, entry)
        self._handle_overflow(path, reinserted_levels)

    def _choose_path(self, entry: AnyEntry, target_level: int) -> List[Tuple[Node, Optional[DirectoryEntry]]]:
        """Descend from the root to the node at ``target_level`` best suited for ``entry``.

        Returns the list of (node, parent_entry) pairs from the root to the
        chosen node; the root's parent entry is ``None``.
        """
        path: List[Tuple[Node, Optional[DirectoryEntry]]] = [(self.root, None)]
        node = self.root
        while node.level > target_level:
            parent_entry = self._choose_subtree(node, entry)
            node = parent_entry.child
            path.append((node, parent_entry))
        return path

    def _choose_subtree(self, node: Node, entry: AnyEntry) -> DirectoryEntry:
        """R* ChooseSubtree among the directory entries of ``node``.

        The geometric criteria of all candidates are evaluated with stacked
        boundary arrays in a handful of vectorised operations; only the final
        lexicographic argmin (first minimum wins, matching ``min``) iterates
        in Python over the at most ``max_fanout + 1`` candidates.
        """
        candidates: List[DirectoryEntry] = node.entries  # type: ignore[assignment]
        entry_mbr = entry.mbr
        bounds = node._bounds_cache
        if bounds is None:
            bounds = (
                np.stack([candidate.mbr.lower for candidate in candidates]),
                np.stack([candidate.mbr.upper for candidate in candidates]),
            )
            node._bounds_cache = bounds
        lowers, uppers = bounds
        areas = (uppers - lowers).prod(axis=1)
        enlarged_lo = np.minimum(lowers, entry_mbr.lower)
        enlarged_up = np.maximum(uppers, entry_mbr.upper)
        enlargements = (enlarged_up - enlarged_lo).prod(axis=1) - areas

        if node.level == 1:
            # children are leaves: minimise overlap enlargement.  The overlap
            # of candidate j's rectangle with every other candidate is one
            # (m, m, d) broadcast, before and after including the new entry.
            def pairwise_overlap(los: np.ndarray, ups: np.ndarray) -> np.ndarray:
                sides = np.minimum(ups[:, None, :], uppers[None, :, :]) - np.maximum(
                    los[:, None, :], lowers[None, :, :]
                )
                return np.where((sides <= 0).any(axis=2), 0.0, sides.prod(axis=2))

            before = pairwise_overlap(lowers, uppers)
            after = pairwise_overlap(enlarged_lo, enlarged_up)
            np.fill_diagonal(before, 0.0)
            np.fill_diagonal(after, 0.0)
            overlap_deltas = after.sum(axis=1) - before.sum(axis=1)
            keys = list(zip(overlap_deltas, enlargements, areas))
        else:
            keys = [
                (enlargements[i], areas[i], candidate.n_objects)
                for i, candidate in enumerate(candidates)
            ]
        return candidates[min(range(len(candidates)), key=keys.__getitem__)]

    def _adjust_path(self, path: List[Tuple[Node, Optional[DirectoryEntry]]], entry: AnyEntry) -> None:
        """Extend MBRs and cluster features of all ancestors of the inserted entry."""
        entry_cf = entry.cluster_feature
        entry_mbr = entry.mbr
        decaying = self._decaying
        for depth, (_node, parent_entry) in enumerate(path):
            if parent_entry is None:
                continue
            parent_entry.mbr = parent_entry.mbr.union(entry_mbr)
            if decaying:
                # Age the ancestor summary to "now" before merging, so both
                # summands are valued at the same logical time (the lazy
                # decay update of the §4.2 extension).
                parent_entry.decay_to(self.clock.now, self.clock.decay_rate)
            parent_entry.cluster_feature.add_feature(entry_cf)
            # Keep the holder node's cached ChooseSubtree bounds exact: the
            # union above only widens this one entry's box.
            holder = path[depth - 1][0]
            cache = holder._bounds_cache
            if cache is not None:
                index = holder.entries.index(parent_entry)
                np.minimum(cache[0][index], entry_mbr.lower, out=cache[0][index])
                np.maximum(cache[1][index], entry_mbr.upper, out=cache[1][index])

    def _handle_overflow(
        self, path: List[Tuple[Node, Optional[DirectoryEntry]]], reinserted_levels: set
    ) -> None:
        """Resolve overflowing nodes bottom-up along the insertion path."""
        for depth in range(len(path) - 1, -1, -1):
            node, parent_entry = path[depth]
            _, max_entries = self.params.capacity(node)
            if len(node.entries) <= max_entries:
                continue
            can_reinsert = (
                node is not self.root
                and node.level not in reinserted_levels
                and self.params.reinsert_fraction > 0.0
            )
            if can_reinsert:
                reinserted_levels.add(node.level)
                self._reinsert(node, path[: depth + 1], reinserted_levels)
            else:
                self._split_node(path, depth)
                # splitting may push the parent over capacity; continue upwards.

    def _reinsert(
        self,
        node: Node,
        path_prefix: List[Tuple[Node, Optional[DirectoryEntry]]],
        reinserted_levels: set,
    ) -> None:
        """R* forced reinsert: remove the farthest entries and insert them again."""
        center = node.compute_mbr().center
        count = max(1, int(round(self.params.reinsert_fraction * len(node.entries))))
        centers = np.stack([e.mbr.lower + e.mbr.upper for e in node.entries]) * 0.5
        deltas = centers - center
        # Stable descending order by center distance (ties keep entry order),
        # matching sorted(..., reverse=True) on the distances.
        order = np.argsort(-(deltas * deltas).sum(axis=1), kind="stable")
        to_reinsert = [node.entries[index] for index in order[:count]]
        removed_ids = {id(e) for e in to_reinsert}
        node.entries = [e for e in node.entries if id(e) not in removed_ids]
        # The removal shrinks the summaries of all ancestors along the path;
        # refresh them bottom-up (each refresh is O(fanout)) and drop the
        # cached ChooseSubtree bounds of every touched node.
        for prefix_node, _ in path_prefix:
            prefix_node._bounds_cache = None
        for _, parent_entry in reversed(path_prefix):
            if parent_entry is not None:
                parent_entry.refresh(clock=self.clock)
        for entry in to_reinsert:
            self._insert_entry(entry, target_level=node.level, reinserted_levels=reinserted_levels)

    def _split_node(self, path: List[Tuple[Node, Optional[DirectoryEntry]]], depth: int) -> None:
        """Split the overflowing node at ``path[depth]`` and update its parent."""
        node, parent_entry = path[depth]
        min_entries, _ = self.params.capacity(node)
        result = rstar_split(node.entries, min_entries)
        node.entries = result.first
        node._bounds_cache = None
        sibling = Node(level=node.level, entries=result.second)

        if parent_entry is None:
            # Node is the root: grow the tree by one level.
            new_root = Node(level=node.level + 1)
            new_root.entries = [
                DirectoryEntry.for_node(node, clock=self.clock),
                DirectoryEntry.for_node(sibling, clock=self.clock),
            ]
            self.root = new_root
            return

        parent_entry.refresh(clock=self.clock)
        parent_node = path[depth - 1][0]
        parent_node.entries.append(DirectoryEntry.for_node(sibling, clock=self.clock))
        parent_node._bounds_cache = None
        # Ancestors of the parent keep their (now conservative) MBRs; the CFs
        # are still exact because the observations below them did not change.

    # -- decay maintenance -------------------------------------------------------------------
    def decay_entries_to(self, now: float) -> None:
        """Age every stored summary to logical time ``now`` (one pre-order walk).

        After the sweep all directory cluster features and leaf weights are
        valued at the same timestamp, so mixture weights read off
        ``entry.n_objects`` are exact decayed weights.  A no-op without an
        enabled clock; the Bayes tree calls this lazily (once per logical
        time / structure change) before packing query parameters.
        """
        if not self._decaying:
            return
        rate = self.clock.decay_rate
        for node in self.iter_nodes():
            for entry in node.entries:
                entry.decay_to(now, rate)

    def remove_leaf_entries(self, stale: Sequence[LeafEntry]) -> None:
        """Delete the given stored observations in place (Guttman's CondenseTree).

        Used by the expiry sweep.  One post-order walk removes the entries
        from their leaves.  A non-root node left below its minimum fill is
        dissolved: its directory entry leaves the parent and its remaining
        entries are re-inserted at their own level, as forced reinsertion
        does.  Every other ancestor of a changed node is refreshed, so
        subtrees without a stale entry keep their shape and summaries.  The
        root is then shortened while it is a directory node with one entry;
        an orphan whose level is above the shortened root is re-inserted as
        its leaf entries.  The version tag goes up by one.

        Raises ``ValueError`` when some of ``stale`` is not stored in the
        tree; the stored ones are still removed, and the size stays exact.
        """
        stale_ids = {id(entry) for entry in stale}
        orphans: List[Tuple[AnyEntry, int]] = []
        removed = self._condense(self.root, stale_ids, orphans)
        while not self.root.is_leaf and len(self.root.entries) == 1:
            self.root = self.root.entries[0].child  # type: ignore[union-attr]
        if not self.root.entries:
            self.root = Node(level=0)
        for entry, level in orphans:
            if level > self.root.level:
                for leaf_entry in entry.child.iter_leaf_entries():  # type: ignore[union-attr]
                    self._insert_entry(leaf_entry, target_level=0, reinserted_levels=set())
            else:
                self._insert_entry(entry, target_level=level, reinserted_levels=set())
        self._size -= removed
        self.version += 1
        if removed != len(stale_ids):
            raise ValueError(
                f"{len(stale_ids) - removed} of the entries to remove are not stored in the tree"
            )

    def _condense(self, node: Node, stale_ids: set, orphans: List[Tuple[AnyEntry, int]]) -> int:
        """Post-order step of :meth:`remove_leaf_entries`; returns the count removed below ``node``.

        Entries of dissolved children are appended to ``orphans`` with the
        level of the node they belong in.
        """
        if node.is_leaf:
            kept = [entry for entry in node.entries if id(entry) not in stale_ids]
            removed = len(node.entries) - len(kept)
        else:
            kept, removed = [], 0
            for entry in node.entries:
                child = entry.child  # type: ignore[union-attr]
                below = self._condense(child, stale_ids, orphans)
                if below:
                    removed += below
                    if len(child.entries) < self.params.capacity(child)[0]:
                        orphans.extend((orphan, child.level) for orphan in child.entries)
                        continue
                    entry.refresh(clock=self.clock)  # type: ignore[union-attr]
                kept.append(entry)
        if removed:
            node.entries = kept
            node._bounds_cache = None
        return removed

    # -- structural serialization (snapshot support) -----------------------------------------
    def export_structure(self) -> Tuple[Dict[str, np.ndarray], List[LeafEntry]]:
        """Flatten the exact node/entry topology into plain numpy arrays.

        Returns ``(arrays, leaf_entries)``: the arrays describe every node
        (pre-order ids) and every directory entry *verbatim* — MBR bounds,
        the current (possibly decayed) cluster feature and its valuation
        timestamp — and ``leaf_entries`` lists the stored observations in the
        same pre-order traversal.  Together with :meth:`from_structure` this
        round-trips a tree without replaying a single insertion, so the
        restored topology, entry order and summary values are bit-identical
        to the saved ones (``repro.persist`` builds its snapshot container on
        top of this).
        """
        nodes = list(self.iter_nodes())
        node_ids = {id(node): index for index, node in enumerate(nodes)}
        dimension = self.dimension
        leaf_entries: List[LeafEntry] = []
        dir_child: List[int] = []
        dir_lower: List[np.ndarray] = []
        dir_upper: List[np.ndarray] = []
        dir_cf_n: List[float] = []
        dir_cf_ls: List[np.ndarray] = []
        dir_cf_ss: List[np.ndarray] = []
        dir_last_update: List[float] = []
        for node in nodes:
            for entry in node.entries:
                if node.is_leaf:
                    leaf_entries.append(entry)  # type: ignore[arg-type]
                else:
                    dir_child.append(node_ids[id(entry.child)])  # type: ignore[union-attr]
                    dir_lower.append(entry.mbr.lower)  # type: ignore[union-attr]
                    dir_upper.append(entry.mbr.upper)  # type: ignore[union-attr]
                    feature = entry.cluster_feature
                    dir_cf_n.append(feature.n)
                    dir_cf_ls.append(feature.linear_sum)
                    dir_cf_ss.append(feature.squared_sum)
                    dir_last_update.append(entry.last_update)  # type: ignore[union-attr]

        def stack(rows: List[np.ndarray]) -> np.ndarray:
            if not rows:
                return np.empty((0, dimension))
            return np.stack(rows).astype(float)

        arrays = {
            "node_levels": np.array([node.level for node in nodes], dtype=np.int64),
            "node_counts": np.array([len(node.entries) for node in nodes], dtype=np.int64),
            "dir_child": np.array(dir_child, dtype=np.int64),
            "dir_mbr_lower": stack(dir_lower),
            "dir_mbr_upper": stack(dir_upper),
            "dir_cf_n": np.array(dir_cf_n, dtype=float),
            "dir_cf_ls": stack(dir_cf_ls),
            "dir_cf_ss": stack(dir_cf_ss),
            "dir_last_update": np.array(dir_last_update, dtype=float),
        }
        return arrays, leaf_entries

    @classmethod
    def from_structure(
        cls,
        arrays: Dict[str, np.ndarray],
        leaf_entries: Sequence[LeafEntry],
        dimension: int,
        params: TreeParameters | None = None,
        clock: Optional[DecayClock] = None,
        version: int = 1,
    ) -> "RStarTree":
        """Rebuild a tree from :meth:`export_structure` output.

        ``leaf_entries`` must be the observations in the exported pre-order;
        the caller owns their construction (the persist layer re-creates them
        from the packed per-observation arrays).  Entry order within every
        node is preserved exactly, which keeps all order-sensitive float
        reductions downstream (packed parameter arrays, log-sum-exp) on the
        same summation order as the saved tree.
        """
        node_levels = np.asarray(arrays["node_levels"], dtype=np.int64)
        node_counts = np.asarray(arrays["node_counts"], dtype=np.int64)
        if node_levels.shape != node_counts.shape or node_levels.size == 0:
            raise ValueError("malformed structure arrays: node tables disagree")
        nodes = [Node(level=int(level)) for level in node_levels]
        dir_child = np.asarray(arrays["dir_child"], dtype=np.int64)
        dir_cursor = 0
        leaf_cursor = 0
        for position, node in enumerate(nodes):
            count = int(node_counts[position])
            if node.is_leaf:
                node.entries = list(leaf_entries[leaf_cursor : leaf_cursor + count])
                if len(node.entries) != count:
                    raise ValueError("malformed structure arrays: missing leaf entries")
                leaf_cursor += count
                continue
            for offset in range(dir_cursor, dir_cursor + count):
                child_index = int(dir_child[offset])
                if not (0 <= child_index < len(nodes)):
                    raise ValueError("malformed structure arrays: child index out of range")
                node.entries.append(
                    DirectoryEntry(
                        mbr=MBR(
                            lower=np.array(arrays["dir_mbr_lower"][offset], dtype=float),
                            upper=np.array(arrays["dir_mbr_upper"][offset], dtype=float),
                        ),
                        cluster_feature=ClusterFeature(
                            n=float(arrays["dir_cf_n"][offset]),
                            linear_sum=np.array(arrays["dir_cf_ls"][offset], dtype=float),
                            squared_sum=np.array(arrays["dir_cf_ss"][offset], dtype=float),
                        ),
                        child=nodes[child_index],
                        last_update=float(arrays["dir_last_update"][offset]),
                    )
                )
            dir_cursor += count
        if leaf_cursor != len(leaf_entries) or dir_cursor != dir_child.shape[0]:
            raise ValueError("malformed structure arrays: entry streams not fully consumed")
        tree = cls(dimension=dimension, params=params, clock=clock)
        tree.root = nodes[0]
        tree._size = len(leaf_entries)
        tree.version = version
        return tree

    # -- validation -------------------------------------------------------------------------
    def validate(self, enforce_fanout: bool = True, require_balance: bool = True) -> None:
        """Check all structural invariants; raises ``AssertionError`` on violation."""
        if self.is_empty():
            return
        self.root.check_invariants(
            min_fanout=self.params.min_fanout,
            max_fanout=self.params.max_fanout,
            leaf_min=self.params.leaf_min,
            leaf_max=self.params.leaf_capacity,
            is_root=True,
            enforce_fanout=enforce_fanout,
            require_balance=require_balance,
            clock=self.clock,
        )
        leaf_count = sum(1 for _ in self.iter_leaf_entries())
        if leaf_count != self._size:
            raise AssertionError(f"tree stores {leaf_count} observations, expected {self._size}")
        leaf_levels = {node.level for node in self.iter_nodes() if node.is_leaf}
        if leaf_levels and leaf_levels != {0}:
            raise AssertionError("all leaves must be at level 0")

    # -- construction from prebuilt structure (bulk loading) --------------------------------
    @classmethod
    def from_root(cls, root: Node, dimension: int, params: TreeParameters | None = None) -> "RStarTree":
        """Wrap an externally built node hierarchy (used by the bulk loaders).

        The stored size is the exact number of leaf entries.  It is *not*
        derived from ``root.n_objects``: cluster features may carry non-unit
        weights (e.g. decayed or otherwise weighted summaries), in which case
        the rounded weight total disagrees with the number of stored
        observations.
        """
        tree = cls(dimension=dimension, params=params)
        tree.root = root
        tree._size = sum(1 for _ in root.iter_leaf_entries())
        return tree

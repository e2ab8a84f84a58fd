"""Flat pre-order forest encoding: the read path of every forest.

The live forest is a Python object graph — nodes hold entry lists, directory
entries hold child pointers — and stays the write side (R* insertion, decay,
expiry).  Each :class:`~repro.core.bayes_tree.BayesTree` compiles itself
(:func:`~repro.core.bayes_tree.compile_flat_tree`) into a **FlatTree** — a
handful of contiguous structure-of-arrays numpy columns keyed by *entry
slot* — and the forest into a :class:`FlatForest` of such trees.
Every anytime read runs over these columns; a live tree caches its compiled
twin (:meth:`BayesTree.flat_twin`).  This module is the read side: it
imports neither the live tree nor the R* index, so a process that serves
snapshots loads none of the write side.

The encoding borrows the XPath-accelerator idea.  The ``D`` directory slots
come first and the ``K`` kernel slots after them, each region numbered in
pre-order with every node's entries contiguous, so every subtree's directory
slots and every subtree's kernels are contiguous too.  A kernel slot holds
only its mean and decayed weight: every kernel of a tree shares one kernel
scale and the tree's kernel kind (paper §2.2: one bandwidth per class).  A
directory slot also records its Gaussian's variance, its MBR and the slot
intervals of its child block and of its kernels, which make the two
structural operations of the query engine array slices:

* "expand this frontier entry" is :meth:`FlatTree.expand`: the slot range
  ``[child_start, child_end)`` as the children's handles plus zero-copy
  column slices of their packed parameters (a kernel block reads the shared
  scale broadcast to the block) — no pointer walk, no per-entry packing
  loop, no per-entry objects;
* "how many kernels does this subtree hold" is a difference of ``post``
  values — the cheap structure-health metrics reported by the serving
  stats.

A frontier therefore holds slot ints and refines through the one
:class:`~repro.core.frontier.Frontier`; the driver in
:mod:`repro.core.driver` serves the live and the flat forest alike.  The
test suite pins the traces over these columns to the object-graph read path
it keeps as a reference (``tests/core/object_graph_reference.py``).

A FlatTree is a read-only snapshot of the decayed state at compile time: it
does not follow subsequent training and its mixture weights are frozen at the
compile-time logical "now".  That is exactly the serving contract — snapshot,
compile, share — and what makes the columns safe to place in a serving
column store's mapping (:mod:`repro.serving.shared_mem`) or to memory-map
from disk (:mod:`repro.persist.snapshot`): every reader reads, nobody
writes.  Both forests' full-refinement ``predict_batch`` reads these
columns too (:meth:`FlatTree.log_density_batch`, over the contiguous kernel
block).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..stats.gaussian import log_gaussian_pdf_normalised, logsumexp, shared_gaussian_normaliser
from ..stats.kernel import log_epanechnikov_pdf_batch
from .descent import DescentStrategy, make_descent_strategy
from .driver import classify_forest, predict_forest
from .frontier import (
    EPANECHNIKOV_KIND,
    GAUSSIAN_KIND,
    Frontier,
    _Expansion,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .driver import AnytimeClassification

__all__ = ["FlatTree", "FlatForest"]

#: Integer metadata slots of a FlatTree (``meta_i`` column), in order.
_META_I_FIELDS = (
    "n_entries",
    "n_leaf",
    "root_count",
    "root_level",
    "n_nodes",
    "n_leaf_nodes",
    "height",
    "leaf_capacity",
    "kernel_kind",
)

#: Float metadata slots of a FlatTree (``meta_f`` column), in order.
_META_F_FIELDS = ("prior_weight",)

#: Per-tree column names a serialized FlatTree consists of (fixed order).
TREE_COLUMNS = (
    "entry_means",
    "entry_n",
    "entry_scales",
    "kernel_scale",
    "entry_levels",
    "entry_depth",
    "child_start",
    "child_end",
    "post",
    "dir_mbr_lower",
    "dir_mbr_upper",
    "meta_i",
    "meta_f",
)

#: Columns with one row per slot (directory and kernel slots alike).
_SLOT_COLUMNS = ("entry_means", "entry_n")

#: Columns with one row per directory slot.
_DIRECTORY_COLUMNS = (
    "entry_scales",
    "entry_levels",
    "entry_depth",
    "child_start",
    "child_end",
    "post",
    "dir_mbr_lower",
    "dir_mbr_upper",
)


class FlatTree:
    """One Bayes tree compiled into contiguous pre-order SoA columns.

    Column overview (``D`` directory slots ``[0, D)``, ``K`` kernel slots
    ``[D, D + K)``, ``d`` dimensions):

    ======================  ==========  ==================================================
    column                  shape       meaning
    ======================  ==========  ==================================================
    ``entry_means``         (D+K, d)    component mean per slot (a kernel's point)
    ``entry_n``             (D+K,)      decayed object weight below the entry
    ``entry_scales``        (D, d)      variance of each directory entry's Gaussian
    ``kernel_scale``        (d,)        the kernels' one scale: variance (Gaussian) /
                                        bandwidth (Epanechnikov)
    ``entry_levels``        (D,) i8     level of the entry's child node
    ``entry_depth``         (D,) i8     depth of the containing node (root node = 0)
    ``child_start/end``     (D,) i8     slot range of the child node's entries
    ``post``                (D,) i8     end of the entry's kernel block
    ``dir_mbr_lower/upper`` (D, d)      bounding boxes for geometric descent
    ======================  ==========  ==================================================

    plus ``meta_i`` (counts, root block, capacity and the kernel kind) and
    ``meta_f`` (the prior weight).  Each region is numbered in pre-order
    with every node's entries contiguous, so an entry's children are
    ``[child_start, child_end)`` — a directory block if its child level is
    above 0, a kernel block otherwise — and its subtree's kernels are
    ``[post of the previous sibling (or the parent's first kernel), post)``.
    Directory slots are Gaussian; kernel slots take the tree's kernel kind.
    The kernel block ``[D, D + K)`` is the full kernel model: what a fully
    refined frontier holds, and what :meth:`log_density_batch` evaluates.
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        meta: Mapping[str, int],
        meta_floats: Mapping[str, float],
    ) -> None:
        # Plain ndarray views of memory-mapped columns (no copy): every node
        # read slices them, and a np.memmap slice costs ~10x an ndarray one.
        columns = {name: np.asarray(array) for name, array in columns.items()}
        self.entry_means = columns["entry_means"]
        self.entry_n = columns["entry_n"]
        self.entry_scales = columns["entry_scales"]
        self.kernel_scale = columns["kernel_scale"]
        self.entry_levels = columns["entry_levels"]
        self.entry_depth = columns["entry_depth"]
        self.child_start = columns["child_start"]
        self.child_end = columns["child_end"]
        self.post = columns["post"]
        self.dir_mbr_lower = columns["dir_mbr_lower"]
        self.dir_mbr_upper = columns["dir_mbr_upper"]
        self.meta: Dict[str, int] = dict(meta)
        self.meta_floats: Dict[str, float] = dict(meta_floats)
        self.dimension = int(self.entry_means.shape[1])
        #: Number of directory slots: the kernel block starts here.
        self.n_directory = self.meta["n_entries"] - self.meta["n_leaf"]
        # What a block's entries share, as stride-0 views that expand slices
        # like the columns: directory blocks are Gaussian, kernel blocks are
        # level -1, the tree's kernel kind and its one kernel scale.
        kernels = self.meta["n_leaf"]
        self._directory_kinds = np.broadcast_to(np.int8(GAUSSIAN_KIND), (self.n_directory,))
        self._kernel_levels = np.broadcast_to(np.int64(-1), (kernels,))
        self._kernel_kinds = np.broadcast_to(np.int8(self.meta["kernel_kind"]), (kernels,))
        self._kernel_scales = np.broadcast_to(self.kernel_scale, (kernels, self.dimension))
        self._kernels: Optional[Tuple[np.ndarray, np.ndarray, float]] = None

    # -- serialization ----------------------------------------------------------------------
    def to_columns(self) -> Dict[str, np.ndarray]:
        """The tree as a name → array mapping (``TREE_COLUMNS`` order)."""
        out: Dict[str, np.ndarray] = {}
        for name in TREE_COLUMNS:
            if name == "meta_i":
                out[name] = np.array(
                    [self.meta[field] for field in _META_I_FIELDS], dtype=np.int64
                )
            elif name == "meta_f":
                out[name] = np.array(
                    [self.meta_floats[field] for field in _META_F_FIELDS], dtype=float
                )
            else:
                out[name] = getattr(self, name)
        return out

    @classmethod
    def from_columns(cls, columns: Mapping[str, np.ndarray]) -> "FlatTree":
        """Rebuild from :meth:`to_columns` output, validating the structure.

        Raises :class:`ValueError` on any missing column, length
        disagreement, or interval inconsistency — the persistence layer wraps
        these into :class:`repro.persist.SnapshotError`.
        """
        missing = [name for name in TREE_COLUMNS if name not in columns]
        if missing:
            raise ValueError(f"flat tree columns missing: {missing}")
        meta_i = np.asarray(columns["meta_i"]).ravel()
        meta_f = np.asarray(columns["meta_f"]).ravel()
        if meta_i.shape[0] != len(_META_I_FIELDS):
            raise ValueError("flat tree meta_i column has the wrong length")
        if meta_f.shape[0] != len(_META_F_FIELDS):
            raise ValueError("flat tree meta_f column has the wrong length")
        meta = {field: int(meta_i[i]) for i, field in enumerate(_META_I_FIELDS)}
        meta_floats = {field: float(meta_f[i]) for i, field in enumerate(_META_F_FIELDS)}
        cls._validate_columns(columns, meta)
        tree = cls(columns, meta, meta_floats)
        return tree

    @staticmethod
    def _validate_columns(columns: Mapping[str, np.ndarray], meta: Dict[str, int]) -> None:
        """Structural validation of deserialized columns (raises ValueError)."""
        total = meta["n_entries"]
        n_dir = total - meta["n_leaf"]
        root_count = meta["root_count"]
        if n_dir < 0:
            raise ValueError("flat tree records more kernels than entry slots")
        for names, rows in ((_SLOT_COLUMNS, total), (_DIRECTORY_COLUMNS, n_dir)):
            for name in names:
                if columns[name].shape[0] != rows:
                    raise ValueError(
                        f"flat tree column {name!r} has {columns[name].shape[0]} rows, "
                        f"expected {rows} (interval/column length disagreement)"
                    )
        dimension = columns["entry_means"].shape[1:]
        for name in ("entry_scales", "dir_mbr_lower", "dir_mbr_upper"):
            if columns[name].shape[1:] != dimension:
                raise ValueError(f"flat tree column {name!r} has the wrong dimension")
        if columns["kernel_scale"].shape != dimension:
            raise ValueError("flat tree column 'kernel_scale' must be one (d,) row")
        if meta["kernel_kind"] not in (GAUSSIAN_KIND, EPANECHNIKOV_KIND):
            raise ValueError("flat tree meta_i holds an unknown kernel kind")
        # The root block is the first root_count slots of one region: the
        # directory region, or the kernels of a tree whose root is a leaf.
        if total and not 0 < root_count <= (n_dir if n_dir else total):
            raise ValueError("flat tree root block is out of bounds")
        if not n_dir and root_count != total:
            raise ValueError("flat tree root leaf must hold every kernel")
        if n_dir:
            levels = np.asarray(columns["entry_levels"])
            starts = np.asarray(columns["child_start"])
            ends = np.asarray(columns["child_end"])
            posts = np.asarray(columns["post"])
            above_leaf = levels == 0
            # A child block lies in one region: kernels below level-0
            # entries, directory slots below the rest.
            if not (
                np.all(levels >= 0)
                and np.all(starts >= root_count)
                and np.all(starts < ends)
                and np.all(np.where(above_leaf, starts >= n_dir, ends <= n_dir))
                and np.all(ends <= total)
            ):
                raise ValueError("flat tree subtree intervals are out of bounds")
            # Disjoint ranges that cover every non-root slot give each slot
            # one parent.
            order = np.argsort(starts)
            if int((ends - starts).sum()) != total - root_count or np.any(
                ends[order[:-1]] > starts[order[1:]]
            ):
                raise ValueError(
                    "flat tree child ranges do not partition the non-root slots"
                )
            # post ends the entry's kernel block: its leaf's block end, or
            # its last child's post; the root block's last post ends them all.
            last_child = np.where(above_leaf, 0, ends - 1)
            if not (
                np.all(posts == np.where(above_leaf, ends, posts[last_child]))
                and posts[root_count - 1] == total
            ):
                raise ValueError("flat tree post column disagrees with the child intervals")
        # Every read, full refinement included, evaluates these values: a
        # NaN would score every query NaN, and a negative weight or scale
        # has no density.
        for name in (
            "entry_means", "entry_scales", "kernel_scale", "entry_n", "dir_mbr_lower", "dir_mbr_upper"
        ):
            if not np.isfinite(columns[name]).all():
                raise ValueError(f"flat tree column {name!r} holds a non-finite value")
        for name in ("entry_n", "entry_scales", "kernel_scale", "entry_depth"):
            if np.any(np.asarray(columns[name]) < 0):
                raise ValueError(f"flat tree column {name!r} holds a negative value")

    # -- query surface ------------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        """Number of stored observations (kernels) in the compiled tree."""
        return self.meta["n_leaf"]

    def node_count(self) -> int:
        return self.meta["n_nodes"]

    def height(self) -> int:
        return self.meta["height"]

    def expand(self, slot: Optional[int]) -> _Expansion:
        """The entries below ``slot`` (the root block for ``None``), as columns.

        Returns ``(slots, levels, (means, scales, kinds, n_objects))``: the
        child block's slot range as the frontier's handles, and zero-copy
        slices of the columns.  A block is all directory slots or all kernel
        slots; a kernel block's levels, kinds and scales are the shared
        values broadcast to the block.
        """
        if slot is None:
            start, end = 0, self.meta["root_count"]
        else:
            start, end = int(self.child_start[slot]), int(self.child_end[slot])
        means, n_objects = self.entry_means[start:end], self.entry_n[start:end]
        if start < self.n_directory:
            return (
                range(start, end),
                self.entry_levels[start:end],
                (means, self.entry_scales[start:end], self._directory_kinds[start:end], n_objects),
            )
        first, last = start - self.n_directory, end - self.n_directory
        return (
            range(start, end),
            self._kernel_levels[first:last],
            (means, self._kernel_scales[first:last], self._kernel_kinds[first:last], n_objects),
        )

    def min_distance(self, slot: int, query: np.ndarray) -> float:
        """MINDIST from ``query`` to the MBR of directory slot ``slot``."""
        point = np.asarray(query, dtype=float)
        # The float ops of ``MBR.min_distance``, so geometric descent ranks
        # exactly as it would over the live tree's entries.
        below = np.maximum(self.dir_mbr_lower[slot] - point, 0.0)
        above = np.maximum(point - self.dir_mbr_upper[slot], 0.0)
        gaps = np.maximum(below, above)
        return float(np.sqrt((gaps * gaps).sum()))

    def frontier(
        self,
        query: Sequence[float] | np.ndarray,
        root_log_densities: Optional[np.ndarray] = None,
    ) -> Frontier:
        """Anytime density-query state over the flat columns, seeded at the root.

        ``root_log_densities`` optionally carries this query's precomputed
        unweighted log densities for the root block (one row of the batch
        driver's shared evaluation).  The frontier's refinement steps read
        the columns through :meth:`expand`.
        """
        if self.n_objects == 0:
            raise ValueError("cannot query an empty Bayes tree")
        query = np.asarray(query, dtype=float)
        if query.shape != (self.dimension,):
            raise ValueError(f"query must have shape ({self.dimension},)")
        return Frontier(self, query, root_log_densities)

    def _kernel_model(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """``(log weights, scale, normaliser)`` of the kernel block, computed once.

        The log weights are those a fully refined frontier gives the
        kernels: ``log n_e − log n``, with ``n`` the root block's total
        summed in slot order (:class:`Frontier`).  A Gaussian tree's scale is
        its kernel variance floored at ``MIN_VARIANCE`` with its normaliser
        (:func:`~repro.stats.gaussian.shared_gaussian_normaliser`); an
        Epanechnikov tree's is the bandwidth broadcast to the block.
        """
        model = self._kernels
        if model is None:
            total = float(sum(self.entry_n[: self.meta["root_count"]].tolist()))
            # A tree without weight gives every kernel weight zero, as its frontier does.
            log_total = math.log(total) if total > 0 else math.inf
            with np.errstate(divide="ignore"):
                log_weights = np.log(self.entry_n[self.n_directory :]) - log_total
            if self.meta["kernel_kind"] == GAUSSIAN_KIND:
                scale, normaliser = shared_gaussian_normaliser(self.kernel_scale)
            else:
                scale, normaliser = self._kernel_scales, 0.0
            model = self._kernels = (log_weights, scale, normaliser)
        return model

    def log_density_batch(self, queries: np.ndarray) -> np.ndarray:
        """Full-model log densities for a batch of queries, fully vectorised.

        The density a frontier reaches once no directory entry remains, but
        evaluated over the whole kernel block at once — the full-refinement
        path of both forests' ``predict_batch``.  The block's means are a
        zero-copy view of ``entry_means``.
        """
        if self.n_objects == 0:
            raise ValueError("cannot query an empty Bayes tree")
        queries = np.asarray(queries, dtype=float)
        single = queries.ndim == 1
        queries = np.atleast_2d(queries)
        if queries.shape[1] != self.dimension:
            raise ValueError(f"queries must have shape (m, {self.dimension})")
        log_weights, scale, normaliser = self._kernel_model()
        means = self.entry_means[self.n_directory :]
        if self.meta["kernel_kind"] == GAUSSIAN_KIND:
            logs = log_gaussian_pdf_normalised(queries, means, scale, normaliser)
        else:
            logs = log_epanechnikov_pdf_batch(queries, means, scale)
        result = logsumexp(logs + log_weights[None, :], axis=1)
        return result[0] if single else result

    # -- structure health --------------------------------------------------------------------
    def structure_stats(self) -> Dict[str, object]:
        """Cheap structural health metrics straight from the interval columns.

        Everything here is a vectorised reduction over the directory
        columns — no tree walk, no object graph: the depth profile is a
        bincount over the kernels' node depths (one below each leaf's parent
        entry), leaf occupancy compares stored kernels to leaf-node capacity,
        and the root balance ratio counts kernels per root subtree as the
        differences of the root entries' ``post`` values.
        """
        meta = self.meta
        if meta["n_entries"] == 0:
            return {
                "n_entries": 0,
                "n_kernels": 0,
                "n_directory_entries": 0,
                "n_nodes": 0,
                "n_leaf_nodes": 0,
                "height": 0,
                "leaf_occupancy": 0.0,
                "depth_profile": [],
                "mean_kernel_depth": 0.0,
                "max_kernel_depth": 0,
                "root_subtree_kernels": [],
                "root_balance_ratio": 1.0,
                "prior_weight": 0.0,
            }
        n_kernels = meta["n_leaf"]
        n_dir = self.n_directory
        if n_dir:
            leaf_parents = np.flatnonzero(self.entry_levels == 0)
            depths = np.repeat(
                self.entry_depth[leaf_parents] + 1,
                self.child_end[leaf_parents] - self.child_start[leaf_parents],
            )
            # Root subtrees hold consecutive kernel blocks starting at slot D.
            root_counts = np.diff(self.post[: meta["root_count"]], prepend=n_dir).tolist()
        else:
            # A root leaf: every kernel is a root entry at depth 0.
            depths = np.zeros(n_kernels, dtype=np.int64)
            root_counts = [1] * meta["root_count"]
        profile = np.bincount(depths) if depths.size else np.zeros(0, dtype=np.int64)
        capacity = meta["n_leaf_nodes"] * meta["leaf_capacity"]
        if root_counts and max(root_counts) > 0:
            balance = min(root_counts) / max(root_counts)
        else:
            balance = 1.0
        return {
            "n_entries": meta["n_entries"],
            "n_kernels": n_kernels,
            "n_directory_entries": n_dir,
            "n_nodes": meta["n_nodes"],
            "n_leaf_nodes": meta["n_leaf_nodes"],
            "height": meta["height"],
            "leaf_occupancy": (n_kernels / capacity) if capacity else 0.0,
            "depth_profile": profile.tolist(),
            "mean_kernel_depth": float(depths.mean()) if depths.size else 0.0,
            "max_kernel_depth": int(depths.max()) if depths.size else 0,
            "root_subtree_kernels": root_counts,
            "root_balance_ratio": float(balance),
            "prior_weight": self.meta_floats["prior_weight"],
        }

    def nbytes(self) -> int:
        """Total byte size of the stored columns (as serialized)."""
        return int(sum(array.nbytes for array in self.to_columns().values()))


class FlatForest:
    """Read-only columnar twin of an :class:`AnytimeBayesClassifier` forest.

    Exposes the classifier's prediction surface — :meth:`classify_anytime`,
    :meth:`classify_anytime_batch`, :meth:`predict_batch` — through the same
    module-level functions of :mod:`repro.core.driver`, so predictions,
    per-step posteriors and node-read counts are bit-identical to the live
    forest it was compiled from.  Training APIs are deliberately absent: a
    flat forest is a snapshot; to learn, mutate the live forest and
    recompile (the serving engine does exactly that on hot swaps).
    """

    def __init__(
        self,
        trees: Dict[Hashable, FlatTree],
        log_priors: Dict[Hashable, float],
        descent: DescentStrategy,
        qbk_k: Optional[int],
        dimension: int,
    ) -> None:
        self.trees = trees
        self.log_priors = log_priors
        self.descent = descent
        self.qbk_k = qbk_k
        self.dimension = dimension

    # -- serialization ----------------------------------------------------------------------
    @property
    def labels(self) -> List[Hashable]:
        """Class labels in stored order (parallel to the serialized columns)."""
        return list(self.trees.keys())

    def to_columns(self) -> Dict[str, np.ndarray]:
        """All trees' columns under ``t{i}__`` prefixes plus the forest priors."""
        arrays: Dict[str, np.ndarray] = {}
        for position, label in enumerate(self.labels):
            for name, array in self.trees[label].to_columns().items():
                arrays[f"t{position}__{name}"] = array
        arrays["forest__log_priors"] = np.array(
            [self.log_priors[label] for label in self.labels], dtype=float
        )
        return arrays

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, np.ndarray],
        labels: Sequence[Hashable],
        descent: str | DescentStrategy,
        qbk_k: Optional[int],
        dimension: int,
    ) -> "FlatForest":
        """Rebuild a forest from prefixed columns (inverse of :meth:`to_columns`).

        ``labels`` (typically from the snapshot manifest) names tree ``i``'s
        class.  Raises :class:`ValueError` on structural problems; the
        persistence layer converts those into :class:`SnapshotError`.
        """
        if "forest__log_priors" not in columns:
            raise ValueError("flat forest columns missing 'forest__log_priors'")
        priors_column = np.asarray(columns["forest__log_priors"], dtype=float).ravel()
        if priors_column.shape[0] != len(labels):
            raise ValueError(
                "flat forest prior column length disagrees with the class list"
            )
        # -inf is the prior of a class whose kernels all expired.
        if np.any(np.isnan(priors_column) | (priors_column == np.inf)):
            raise ValueError("flat forest column 'forest__log_priors' holds NaN or +inf")
        trees: Dict[Hashable, FlatTree] = {}
        for position, label in enumerate(labels):
            prefix = f"t{position}__"
            tree_columns = {
                name[len(prefix) :]: array
                for name, array in columns.items()
                if name.startswith(prefix)
            }
            trees[label] = FlatTree.from_columns(tree_columns)
            if trees[label].dimension != dimension:
                raise ValueError(f"flat tree {position} has another dimension than the forest")
        log_priors = {
            label: float(priors_column[position])
            for position, label in enumerate(labels)
        }
        if not isinstance(descent, DescentStrategy):
            descent = make_descent_strategy(descent)
        return cls(
            trees=trees,
            log_priors=log_priors,
            descent=descent,
            qbk_k=qbk_k,
            dimension=int(dimension),
        )

    # -- classification ---------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return bool(self.trees)

    @property
    def n_classes(self) -> int:
        """Number of known classes, including currently empty ones."""
        return len(self.trees)

    def classify_anytime(
        self, query: Sequence[float] | np.ndarray, max_nodes: int
    ) -> AnytimeClassification:
        """Anytime classification over the flat columns (bit-identical trace).

        The lockstep driver on one row, like
        :meth:`AnytimeBayesClassifier.classify_anytime`.
        """
        queries = np.asarray(query, dtype=float)[None, :]
        return classify_forest(self, self.trees, queries, max_nodes, True)[0]

    def classify_anytime_batch(
        self,
        queries: np.ndarray,
        max_nodes: "int | Sequence[int] | np.ndarray",
        record_history: bool = True,
    ) -> List[AnytimeClassification]:
        """Lockstep batch classification over the flat columns."""
        return classify_forest(self, self.trees, queries, max_nodes, record_history)

    def predict_batch(
        self, queries: np.ndarray, node_budget: Optional[int] = None
    ) -> List[Hashable]:
        """Batch label prediction (full kernel model when ``node_budget`` is None)."""
        return predict_forest(self, self.trees, queries, node_budget)

    # -- structure health --------------------------------------------------------------------
    def structure_stats(self) -> Dict[str, object]:
        """Forest-wide structural health summary (JSON-serialisable).

        Per-class metrics come from :meth:`FlatTree.structure_stats` (pure
        column reductions); the roll-up aggregates entry/node counts, the
        height range and the total stored kernels — the serving ``/stats``
        endpoint reports this verbatim.
        """
        per_class: Dict[str, dict] = {}
        totals = {"n_entries": 0, "n_kernels": 0, "n_nodes": 0}
        heights: List[int] = []
        for label, tree in self.trees.items():
            stats = tree.structure_stats()
            per_class[str(label)] = stats
            totals["n_entries"] += stats["n_entries"]
            totals["n_kernels"] += stats["n_kernels"]
            totals["n_nodes"] += stats["n_nodes"]
            if tree.n_objects:
                heights.append(stats["height"])
        return {
            "classes": per_class,
            "n_classes": self.n_classes,
            "total_entries": totals["n_entries"],
            "total_kernels": totals["n_kernels"],
            "total_nodes": totals["n_nodes"],
            "min_height": min(heights) if heights else 0,
            "max_height": max(heights) if heights else 0,
        }

    def nbytes(self) -> int:
        """Total byte size of all serialized columns."""
        return int(sum(tree.nbytes() for tree in self.trees.values())) + 8 * len(
            self.trees
        )

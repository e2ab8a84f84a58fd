"""The Bayes tree: an R*-tree storing a hierarchy of Gaussian mixture models.

Paper §2.2: the observations (kernel estimators) are stored at leaf level, the
directory on top provides "a hierarchy of node entries, each of which is a
Gaussian that represents the entire subtree below it".  Every level — and more
generally every frontier — is a complete mixture model of the training data of
one class, which is what enables anytime probability density queries.

The class below wraps the index substrate with:

* training (iterative insertion, the baseline the bulk loaders are compared
  against, and incremental online learning of new objects),
* kernel bandwidth management (Silverman's rule over the class's training
  data, maintained from running sufficient statistics so a streamed insert
  updates the bandwidth in O(d) instead of re-scanning the training set),
* the flat twin every anytime density query reads (:meth:`flat_twin`): the
  tree compiled (:func:`compile_flat_tree`) into
  :class:`~repro.core.flat.FlatTree` columns, cached until the model changes,
* density queries over arbitrary sets of its index entries (:func:`pdq`,
  with :func:`pdq_scalar` as the linear-space reference), which level models,
  bulk-loader checks and the test suite's object-graph reference read.

This module, with the R* index below it, is the write side: a process that
only serves compiled snapshots never imports it (see DESIGN.md, import
layering).

Incremental maintenance (see DESIGN.md, incremental maintenance): the tree
keeps per-dimension ``(n, LS, SS)`` running sums and an epoch-tagged shared
bandwidth vector (one kernel family and bandwidth per tree; leaf entries
carry neither), so an insert updates the model in O(d) beside the index
insertion.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..index.cluster_feature import ClusterFeature
from ..index.decay import DecayClock, DecayedClusterFeature, decay_factor
from ..index.entry import DirectoryEntry, LeafEntry
from ..index.node import AnyEntry, Node
from ..index.rstar import RStarTree
from ..stats.gaussian import logsumexp, safe_exp
from ..stats.kernel import silverman_bandwidth_from_stats
from .config import BayesTreeConfig
from .descent import GlobalBestDescent
from .flat import FlatTree
from .frontier import EPANECHNIKOV_KIND, GAUSSIAN_KIND, _BatchParams, component_log_densities

__all__ = [
    "BayesTree",
    "compile_flat_tree",
    "entry_component_params",
    "finite_points",
    "log_pdq",
    "pdq",
    "pdq_scalar",
]

#: Ratio of the canonical Epanechnikov to Gaussian kernel bandwidths:
#: Silverman's rule targets the Gaussian kernel, the Epanechnikov kernel
#: needs a ~2.2x wider window for the same amount of smoothing.
_EPANECHNIKOV_RESCALE = 2.214


def finite_points(points: Sequence[float] | np.ndarray) -> np.ndarray:
    """``points`` as a float array, refused (``ValueError``) if any value is NaN or infinite.

    One non-finite coordinate poisons every summary above its kernel and,
    through them, every read of its class, so training refuses it before
    any state changes, as the read side refuses such queries.
    """
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise ValueError("points must be finite (no NaN or infinity)")
    return points


# -- density queries over a live tree's index entries ------------------------------------------

def entry_component_params(
    entry: AnyEntry,
    variance_inflation: Optional[np.ndarray] = None,
    leaf_bandwidth: Optional[np.ndarray] = None,
    *,
    kernel: str,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(mean, scale, kind)`` of the entry's mixture component.

    Directory entries are the moment match of the kernel mixture they
    summarise (cluster-feature variance plus the squared kernel bandwidth,
    see :meth:`DirectoryEntry.to_gaussian`); leaf entries are their tree's
    ``kernel``: exact Gaussians with variance ``h**2``, or Epanechnikov
    kernels that keep the bandwidth and are flagged with
    :data:`EPANECHNIKOV_KIND`.

    ``leaf_bandwidth`` is the tree-shared, epoch-tagged kernel bandwidth ``h``:
    leaf entries carry no copy of it (updating a copy per entry made every
    streamed insert O(n)), so it is resolved here, at evaluation time.
    """
    if isinstance(entry, DirectoryEntry):
        feature = entry.cluster_feature
        variance = feature.variance()
        if variance_inflation is not None:
            variance = variance + variance_inflation
        return feature.mean(), variance, GAUSSIAN_KIND
    if leaf_bandwidth is None:
        raise ValueError("leaf entry has no bandwidth assigned yet")
    if kernel == "epanechnikov":
        return entry.point, leaf_bandwidth, EPANECHNIKOV_KIND
    return entry.point, leaf_bandwidth ** 2, GAUSSIAN_KIND


def _entry_density(
    entry: AnyEntry,
    x: np.ndarray,
    variance_inflation: Optional[np.ndarray] = None,
    leaf_bandwidth: Optional[np.ndarray] = None,
    *,
    kernel: str,
) -> float:
    """Unweighted density of an entry's model component at ``x`` (scalar path).

    Directory entries are evaluated as the moment match of the kernel mixture
    they summarise (cluster-feature variance plus the squared kernel
    bandwidth, see :meth:`DirectoryEntry.to_gaussian`); leaf entries evaluate
    their kernel directly.  Retained as the reference implementation the
    vectorised engine is tested against.
    """
    if isinstance(entry, DirectoryEntry):
        return entry.density(x, variance_inflation=variance_inflation)
    return entry.density(x, bandwidth=leaf_bandwidth, kernel=kernel)


def pdq_scalar(
    x: np.ndarray,
    entries: Sequence[AnyEntry],
    total_objects: Optional[float] = None,
    variance_inflation: Optional[np.ndarray] = None,
    leaf_bandwidth: Optional[np.ndarray] = None,
    *,
    kernel: str,
) -> float:
    """Linear-space scalar probability density query (reference implementation).

    One ``math.exp`` per entry; kept verbatim from the pre-vectorisation
    engine so property tests can pin the vectorised :func:`pdq` against it.
    """
    entries = list(entries)
    if not entries:
        return 0.0
    x = np.asarray(x, dtype=float)
    if total_objects is None:
        total_objects = float(sum(entry.n_objects for entry in entries))
    if total_objects <= 0:
        return 0.0
    return float(
        sum(
            entry.n_objects
            / total_objects
            * _entry_density(entry, x, variance_inflation, leaf_bandwidth, kernel=kernel)
            for entry in entries
        )
    )


def _entry_batch_params(
    entries: Sequence[AnyEntry],
    variance_inflation: Optional[np.ndarray],
    leaf_bandwidth: Optional[np.ndarray] = None,
    *,
    kernel: str,
) -> _BatchParams:
    """Pack ``(means, scales, kinds, n_objects)`` arrays for a batch of entries."""
    first_mean, _, _ = entry_component_params(
        entries[0], variance_inflation, leaf_bandwidth, kernel=kernel
    )
    dimension = first_mean.shape[0]
    count = len(entries)
    means = np.empty((count, dimension))
    scales = np.empty((count, dimension))
    kinds = np.empty(count, dtype=np.int8)
    n_objects = np.empty(count)
    for i, entry in enumerate(entries):
        mean, scale, kind = entry_component_params(
            entry, variance_inflation, leaf_bandwidth, kernel=kernel
        )
        means[i] = mean
        scales[i] = scale
        kinds[i] = kind
        n_objects[i] = entry.n_objects
    return means, scales, kinds, n_objects


def log_pdq(
    x: np.ndarray,
    entries: Sequence[AnyEntry],
    total_objects: Optional[float] = None,
    variance_inflation: Optional[np.ndarray] = None,
    leaf_bandwidth: Optional[np.ndarray] = None,
    *,
    kernel: str,
) -> float:
    """Log-space probability density query over an arbitrary entry set.

    Evaluates all entries with one batched log density call and mixes them via
    log-sum-exp; returns ``-inf`` for an empty entry set (density zero).
    """
    entries = list(entries)
    if not entries:
        return -math.inf
    x = np.asarray(x, dtype=float)
    means, scales, kinds, n_objects = _entry_batch_params(
        entries, variance_inflation, leaf_bandwidth, kernel=kernel
    )
    if total_objects is None:
        total_objects = float(n_objects.sum())
    if total_objects <= 0:
        return -math.inf
    with np.errstate(divide="ignore"):
        log_weights = np.log(n_objects) - math.log(total_objects)
    return float(logsumexp(log_weights + component_log_densities(x, means, scales, kinds)))


def pdq(
    x: np.ndarray,
    entries: Sequence[AnyEntry],
    total_objects: Optional[float] = None,
    variance_inflation: Optional[np.ndarray] = None,
    leaf_bandwidth: Optional[np.ndarray] = None,
    *,
    kernel: str,
) -> float:
    """Probability density query over an arbitrary entry set (paper Def. 3).

    Vectorised log-space implementation; agrees with :func:`pdq_scalar` to
    floating-point round-off and is the hot path of level-model and baseline
    density evaluations.  ``leaf_bandwidth`` and ``kernel`` are the tree's
    kernel bandwidth and family, which every leaf entry shares.
    """
    return safe_exp(
        log_pdq(x, entries, total_objects, variance_inflation, leaf_bandwidth, kernel=kernel)
    )


class BayesTree:
    """Hierarchical mixture model over the training objects of a single class."""

    def __init__(self, dimension: int, config: Optional[BayesTreeConfig] = None) -> None:
        self.config = config or BayesTreeConfig()
        self.dimension = dimension
        #: Logical clock of this tree (decay rate + current time), shared
        #: with the index substrate so insertions stamp entries and query
        #: packings age summaries against the same "now" (paper §4.2).  With
        #: ``decay_rate=0`` the clock is inert and every path is bit-identical
        #: to the never-forgetting tree.
        self.clock = DecayClock(decay_rate=self.config.decay_rate)
        self.index = RStarTree(dimension=dimension, params=self.config.tree, clock=self.clock)
        self._bandwidth: Optional[np.ndarray] = None
        self._bandwidth_epoch = 0
        # Running sufficient statistics (n, LS, SS) of the training set; the
        # Silverman bandwidth is re-derived from them in O(d) per insert.
        # They are kept as a decayed cluster feature (aged lazily before each
        # update), accumulated around the first observation as origin:
        # variances are shift-invariant, and the naive SS/n - mean**2 form
        # suffers catastrophic cancellation for data whose mean is large
        # relative to its spread (e.g. timestamp-like features).
        self._stats_origin: Optional[np.ndarray] = None
        self._stats = DecayedClusterFeature(dimension, decay_rate=self.config.decay_rate)
        # Kernels stored through this tree's own maintenance: an index whose
        # size disagrees was mutated behind the tree's back.
        self._n_kernels = 0
        self._twin: Optional[Tuple[Tuple, FlatTree]] = None
        self._decay_sync_key: Optional[Tuple[int, float]] = None
        self._last_expiry_sweep = 0.0

    # -- basic properties -----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.index)

    @property
    def n_objects(self) -> int:
        """Number of stored observations."""
        return len(self.index)

    @property
    def bandwidth(self) -> Optional[np.ndarray]:
        """Current kernel bandwidth vector (None before any training data)."""
        return self._bandwidth

    @property
    def bandwidth_epoch(self) -> int:
        """Monotonic tag incremented whenever the shared bandwidth is re-derived.

        Leaf entries resolve the shared bandwidth at evaluation time, so a new
        epoch implicitly retags every stored kernel without touching a single
        entry — the O(n) per-insert restamping of the historical code is gone.
        """
        return self._bandwidth_epoch

    @property
    def root(self) -> Node:
        return self.index.root

    def node_count(self) -> int:
        return self.index.node_count()

    def height(self) -> int:
        return self.index.height

    def validate(self, enforce_fanout: bool = True, require_balance: bool = True) -> None:
        """Check the structural invariants of the underlying index."""
        self.index.validate(enforce_fanout=enforce_fanout, require_balance=require_balance)

    # -- training ----------------------------------------------------------------------------
    def fit(self, points: np.ndarray, label: Optional[object] = None) -> "BayesTree":
        """Train from scratch by iterative insertion (the paper's baseline).

        Bulk-loaded trees are built by the strategies in ``repro.bulkload``
        and attached via :meth:`adopt_index` instead.  The per-point updates
        are exactly those of :meth:`insert`, so a tree grown by streamed
        ``insert`` calls is bit-identical to one fitted on the same data.
        """
        points = finite_points(points)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(f"points must be an (n, {self.dimension}) array")
        for point in points:
            self.insert(point, label=label)
        return self

    def advance_time(self, now: float) -> float:
        """Advance the logical clock to ``now`` (never backwards).

        Pure time passage is lazy: stored summaries are only aged when the
        next insertion touches their path or the next query packs parameters,
        so advancing the clock is O(1) amortised.  Expiry, however, is
        checked here too — a class that stops receiving data must still shed
        its stale kernels (class disappearance on an evolving stream).
        """
        advanced = self.clock.advance(now)
        self._maybe_expire()
        return advanced

    def insert(
        self,
        point: Sequence[float] | np.ndarray,
        label: Optional[object] = None,
        timestamp: Optional[float] = None,
    ) -> None:
        """Incremental online learning of a single new training object.

        O(d) model maintenance on top of the index insertion: the running
        sufficient statistics and the shared Silverman bandwidth are updated
        in closed form — nothing re-scans the training set.

        ``timestamp`` advances the logical clock before the insertion; the
        new kernel is stamped with the clock's (possibly advanced) time and
        the decayed running statistics are aged to it first.
        """
        point = finite_points(point)
        if timestamp is not None:
            self.clock.advance(timestamp)
        self.index.insert(point, label=label)
        if self._stats_origin is None:
            self._stats_origin = point.copy()
        shifted = point - self._stats_origin
        self._stats.add_point(shifted, now=self.clock.now)
        self._n_kernels += 1
        self._update_bandwidth()
        self._maybe_expire()

    def adopt_index(self, index: RStarTree) -> "BayesTree":
        """Replace the underlying index with a bulk-loaded one.

        The adopted index joins this tree's logical clock; its entries keep
        their stamps (timestamp 0.0 for clock-less bulk loads, i.e. the bulk
        data is treated as arriving at the stream's origin).
        """
        if index.dimension != self.dimension:
            raise ValueError("index dimensionality does not match the Bayes tree")
        index.clock = self.clock
        self.index = index
        self._decay_sync_key = None
        self.recompute_statistics()
        return self

    def recompute_statistics(self) -> None:
        """Rebuild sufficient statistics, kernel count and bandwidth from the index.

        O(n·d): used after adopting a bulk-loaded index, after an expiry
        sweep, as the safety net when the underlying index was mutated behind
        the tree's back, and by benchmarks to emulate the historical
        per-insert full refresh.  In decayed trees the statistics are the
        weighted sums under each kernel's decayed weight at ``clock.now``.
        """
        decaying = self.clock.enabled
        now = self.clock.now
        entries: List[LeafEntry] = []
        for entry in self.index.iter_leaf_entries():
            if decaying:
                entry.decay_to(now, self.clock.decay_rate)
            entries.append(entry)
        if not entries:
            self._stats_origin = None
            self._stats = DecayedClusterFeature(
                self.dimension, decay_rate=self.config.decay_rate, last_update=now
            )
            self._n_kernels = 0
            self._update_bandwidth()
            return
        stacked = np.asarray([entry.point for entry in entries], dtype=float)
        origin = stacked[0].copy()
        shifted = stacked - origin
        self._stats_origin = origin
        if decaying:
            feature = ClusterFeature.from_weighted_points(
                shifted, np.array([entry.weight for entry in entries])
            )
        else:
            feature = ClusterFeature(
                n=float(stacked.shape[0]),
                linear_sum=shifted.sum(axis=0),
                squared_sum=(shifted * shifted).sum(axis=0),
            )
        self._stats = DecayedClusterFeature(
            self.dimension,
            decay_rate=self.config.decay_rate,
            feature=feature,
            last_update=now,
        )
        self._n_kernels = len(entries)
        self._update_bandwidth()

    def _update_bandwidth(self) -> None:
        """Re-derive the shared bandwidth from the running statistics (O(d)).

        In decayed trees the statistics are the decayed sums as of the last
        model update, so Silverman's rule sees the *effective* (decayed)
        sample size: forgetting data widens the kernels again, exactly as if
        the faded observations had left the training set.
        """
        feature = self._stats.feature
        if feature.n <= 0:
            self._bandwidth = None
        else:
            if feature.n <= 1.0:
                # A single (effective) observation has no spread; fall back
                # to unit bandwidth.
                bandwidth = np.ones(self.dimension)
            else:
                bandwidth = silverman_bandwidth_from_stats(
                    feature.n, feature.linear_sum, feature.squared_sum
                )
            if self.config.kernel == "epanechnikov":
                bandwidth = bandwidth * _EPANECHNIKOV_RESCALE
            self._bandwidth = bandwidth * self.config.bandwidth_scale
        self._bandwidth_epoch += 1

    # -- expiry (bounded memory on infinite streams) -------------------------------------
    def _maybe_expire(self) -> None:
        """Trigger an expiry sweep when stale kernels may have accumulated.

        A fresh kernel needs ``log2(1/threshold) / decay_rate`` time units to
        decay below the expiry threshold (the *horizon*); sweeping twice per
        horizon bounds the stored set to roughly 1.5 horizons of arrivals
        while keeping the amortised sweep cost per insert near-constant.
        """
        threshold = self.config.expiry_threshold
        if threshold <= 0 or not self.clock.enabled:
            return
        horizon = self.clock.horizon(threshold)
        if self.clock.now - self._last_expiry_sweep >= 0.5 * horizon:
            self.expire()

    def expire(self) -> int:
        """Drop every kernel whose decayed weight fell below the threshold.

        Paper §4.2: entries are reused "if their contribution is too
        insignificant due to their age".  The stale kernels are deleted from
        their leaves in place (:meth:`RStarTree.remove_leaf_entries`), so
        only their paths change; survivors keep their insertion timestamps,
        labels and, outside those paths, their place in the tree.
        Statistics, the kernel count and the bandwidth are refreshed from
        the survivors.  Returns the number of expired observations.
        """
        threshold = self.config.expiry_threshold
        if threshold <= 0 or not self.clock.enabled:
            return 0
        now = self.clock.now
        self._last_expiry_sweep = now
        stale: List[LeafEntry] = []
        for entry in self.index.iter_leaf_entries():
            entry.decay_to(now, self.clock.decay_rate)
            if entry.weight < threshold:
                stale.append(entry)
        if not stale:
            return 0
        self.index.remove_leaf_entries(stale)
        self._decay_sync_key = None
        self.recompute_statistics()
        return len(stale)

    # -- snapshot state (persistence support, see repro.persist) --------------------------
    def export_state(self) -> dict:
        """Everything needed to rebuild this tree with bit-identical behaviour.

        The returned dict holds only numpy arrays, plain scalars and the raw
        per-observation label list — encoding them into a container is
        ``repro.persist``'s job.  Captured verbatim:

        * the exact index topology and directory summaries
          (:meth:`RStarTree.export_structure`), with one leaf row per kernel
          in the pre-order that structure places them in,
        * the decay state — logical time, per-observation insertion
          timestamps, decayed running statistics and the last expiry sweep,
        * the shared Silverman bandwidth and the running ``(n, LS, SS)``
          training statistics around their accumulation origin (recomputing
          either from the data could pick a different origin or summation
          order and perturb the last bits).
        """
        self._readopt_if_mutated()
        structure, preorder = self.index.export_structure()
        feature = self._stats.feature
        return {
            "dimension": self.dimension,
            "n": len(self.index),
            "structure": structure,
            "leaf_points": np.array(
                [entry.point for entry in preorder], dtype=float
            ).reshape(-1, self.dimension),
            "leaf_stamps": np.array([entry.timestamp for entry in preorder], dtype=float),
            "leaf_labels": [entry.label for entry in preorder],
            "clock_now": self.clock.now,
            "stats_origin": None if self._stats_origin is None else self._stats_origin.copy(),
            "stats_n": feature.n,
            "stats_ls": feature.linear_sum.copy(),
            "stats_ss": feature.squared_sum.copy(),
            "stats_last_update": self._stats.last_update,
            "bandwidth": None if self._bandwidth is None else self._bandwidth.copy(),
            "last_expiry_sweep": self._last_expiry_sweep,
        }

    @classmethod
    def from_state(cls, state: dict, config: Optional[BayesTreeConfig] = None) -> "BayesTree":
        """Rebuild a tree from :meth:`export_state` output (the exact inverse).

        No insertion is replayed and no statistic is re-derived: topology,
        summaries, leaf order, bandwidth and decay state are adopted
        verbatim, so every query — scalar, frontier-refined or batched — and
        every future insertion behaves bit-identically to the saved tree.
        """
        dimension = int(state["dimension"])
        tree = cls(dimension=dimension, config=config)
        tree.clock.advance(float(state["clock_now"]))
        rate = tree.clock.decay_rate
        now = tree.clock.now
        points = np.asarray(state["leaf_points"], dtype=float)
        times = np.asarray(state["leaf_stamps"], dtype=float)
        preorder = [
            LeafEntry(
                point=points[row],
                label=state["leaf_labels"][row],
                timestamp=float(times[row]),
                weight=decay_factor(rate, now - float(times[row])),
            )
            for row in range(points.shape[0])
        ]
        tree.index = RStarTree.from_structure(
            state["structure"],
            preorder,
            dimension=dimension,
            params=tree.config.tree,
            clock=tree.clock,
        )
        tree._stats_origin = (
            None if state["stats_origin"] is None else np.asarray(state["stats_origin"], dtype=float)
        )
        tree._stats = DecayedClusterFeature(
            dimension,
            decay_rate=tree.config.decay_rate,
            feature=ClusterFeature(
                n=float(state["stats_n"]),
                linear_sum=np.asarray(state["stats_ls"], dtype=float),
                squared_sum=np.asarray(state["stats_ss"], dtype=float),
            ),
            last_update=float(state["stats_last_update"]),
        )
        tree._n_kernels = len(preorder)
        bandwidth = state["bandwidth"]
        tree._bandwidth = None if bandwidth is None else np.asarray(bandwidth, dtype=float)
        tree._bandwidth_epoch = 1
        tree._last_expiry_sweep = float(state["last_expiry_sweep"])
        return tree

    def _variance_inflation(self) -> Optional[np.ndarray]:
        """Squared kernel bandwidth added to directory-entry Gaussians.

        A directory entry summarises a subtree of kernel estimators; matching
        the first two moments of that kernel mixture means its variance is the
        cluster-feature variance *plus* the kernel variance.  This keeps every
        frontier a proper smoothed density even for entries over few objects.
        """
        if self._bandwidth is None:
            return None
        return self._bandwidth ** 2

    def _sync_decay(self) -> None:
        """Age all stored summaries to ``clock.now`` before they are read.

        Lazily memoised per (structure version, logical time): between two
        model/time changes the O(n) aging walk runs at most once, mirroring
        the existing per-version packing rebuilds.  No-op without decay.
        """
        if not self.clock.enabled:
            return
        key = (self.index.version, self.clock.now)
        if self._decay_sync_key == key:
            return
        self.index.decay_entries_to(self.clock.now)
        self._decay_sync_key = key

    @property
    def prior_weight(self) -> float:
        """Mass of this class for the Bayes prior.

        The stored object count for undecayed trees; the decayed total weight
        at the current logical time otherwise.  Because every class decays by
        the same global factor, priors between classes shift only when data
        arrives or expires — never from pure time passage.
        """
        if not self.clock.enabled:
            return float(len(self.index))
        return self._stats.weight(self.clock.now)

    # -- queries ---------------------------------------------------------------------------------
    def flat_twin(self) -> FlatTree:
        """This tree compiled into flat columns, cached until the model changes.

        Every read of the tree, anytime or fully refined, goes through this
        one :class:`~repro.core.flat.FlatTree`.  It is replaced whenever a
        fresh ``compile_flat_tree(tree)`` would differ: after a structural
        change, a new bandwidth epoch or, with decay, a moved clock (without
        decay no column depends on the clock, so the key omits it).  An entry
        stamped behind the tree's back after the twin was cached stays
        invisible until the next model change.
        """
        cached = self._twin
        if cached is None or cached[0] != self._twin_key():
            twin = compile_flat_tree(self)
            # Compile re-adopts an index mutated behind the tree's back
            # (a new bandwidth epoch), so the key is read after it.
            cached = self._twin = (self._twin_key(), twin)
        return cached[1]

    def _twin_key(self) -> Tuple:
        key = (self.index.version, self._bandwidth_epoch)
        return key + (self.clock.now,) if self.clock.enabled else key

    def _readopt_if_mutated(self) -> None:
        """Re-adopt the index if it was mutated behind the tree's back.

        An index changed without :meth:`insert`, :meth:`adopt_index` or
        :meth:`expire` (e.g. direct index manipulation in tests) holds a
        kernel count the tree did not record; its statistics and bandwidth
        are then rebuilt before anything reads or saves the model.
        """
        if self._n_kernels != len(self.index):
            self.recompute_statistics()

    def density(self, query: Sequence[float] | np.ndarray, nodes: Optional[int] = None) -> float:
        """Density estimate after reading ``nodes`` additional nodes (all if None).

        ``nodes=None`` descends the complete tree and therefore returns the
        full kernel density estimate; ``nodes=0`` evaluates the root model.
        A negative or non-integer ``nodes`` raises ``ValueError``.  The
        descent runs over :meth:`flat_twin`.
        """
        frontier = self.flat_twin().frontier(query)
        frontier.refine_fully(GlobalBestDescent(), max_nodes=nodes)
        return frontier.density

    def full_model_density(self, query: Sequence[float] | np.ndarray) -> float:
        """Exact kernel density estimate (reads every node; the infinite-time model)."""
        return self.density(query, nodes=None)

    def level_model_density(self, query: Sequence[float] | np.ndarray, level: int) -> float:
        """Density of the complete model stored at a single tree level.

        Level ``self.root.level`` is the coarsest model (the root entries),
        level 0 evaluates all leaf entries (the kernel model).  Used in tests
        to verify that "each level of the tree stores ... a complete model of
        the entire data".
        """
        query = np.asarray(query, dtype=float)
        if not (0 <= level <= self.root.level):
            raise ValueError(f"level must be between 0 and {self.root.level}")
        self._sync_decay()
        entries: List[AnyEntry] = []
        for node in self.index.iter_nodes():
            if node.level == level:
                entries.extend(node.entries)
        return pdq(
            query,
            entries,
            variance_inflation=self._variance_inflation(),
            leaf_bandwidth=self._bandwidth,
            kernel=self.config.kernel,
        )


# -- flat compilation: the write side's one hand-over to the read side --------------------------

def compile_flat_tree(tree: BayesTree) -> FlatTree:
    """Compile a live :class:`BayesTree` into its flat columnar form.

    The tree's summaries are first aged to its current logical time, then
    each directory node's entries are packed with :func:`_entry_batch_params`
    in entry-list order — the float64 values and summation orders the object
    graph defines — and each leaf node's kernels contribute their points
    and weights.  The tree's one kernel scale (``h**2`` for Gaussian
    kernels, ``h`` for Epanechnikov ones) is stored once.
    :meth:`BayesTree.flat_twin` caches the result; call this directly
    only for a copy that no later read shares.
    """
    tree._readopt_if_mutated()
    dimension = tree.dimension
    n_leaf = int(tree.n_objects)
    if n_leaf == 0:
        return _empty_flat_tree(tree)
    tree._sync_decay()
    variance_inflation = tree._variance_inflation()
    bandwidth = tree._bandwidth
    if bandwidth is None:
        raise ValueError("leaf entry has no bandwidth assigned yet")
    kernel_kind = _kernel_kind(tree)
    kernel_scale = bandwidth if kernel_kind == EPANECHNIKOV_KIND else bandwidth ** 2

    nodes = list(tree.index.iter_nodes())
    total_entries = sum(len(node.entries) for node in nodes)
    n_dir = total_entries - n_leaf

    entry_means = np.empty((total_entries, dimension))
    entry_n = np.empty(total_entries)
    entry_scales = np.empty((n_dir, dimension))
    entry_levels = np.empty(n_dir, dtype=np.int64)
    entry_depth = np.empty(n_dir, dtype=np.int64)
    child_start = np.empty(n_dir, dtype=np.int64)
    child_end = np.empty(n_dir, dtype=np.int64)
    post = np.empty(n_dir, dtype=np.int64)
    dir_mbr_lower = np.empty((n_dir, dimension))
    dir_mbr_upper = np.empty((n_dir, dimension))

    dir_cursor = 0
    kernel_cursor = n_dir
    n_leaf_nodes = 0

    # Directory slots first, kernel slots after them, each numbered in
    # pre-order: a node's entries take one contiguous block of their region,
    # and recursing into each directory entry right after placing the block
    # makes every subtree's directory slots and its kernel slots contiguous —
    # the invariant behind the [child_start, child_end) and post columns.
    def place(node: "Node", depth: int) -> Tuple[int, int]:
        nonlocal dir_cursor, kernel_cursor, n_leaf_nodes
        entries = node.entries
        if node.is_leaf:
            n_leaf_nodes += 1
            start = kernel_cursor
            kernel_cursor += len(entries)
            for slot, entry in enumerate(entries, start):
                entry_means[slot] = entry.point
                entry_n[slot] = entry.weight
            return start, kernel_cursor
        start = dir_cursor
        end = dir_cursor = start + len(entries)
        means, scales, _, n_objects = _entry_batch_params(
            entries, variance_inflation, kernel=tree.config.kernel
        )
        entry_means[start:end] = means
        entry_scales[start:end] = scales
        entry_n[start:end] = n_objects
        entry_depth[start:end] = depth
        for slot, entry in enumerate(entries, start):
            entry_levels[slot] = entry.child.level
            dir_mbr_lower[slot] = entry.mbr.lower
            dir_mbr_upper[slot] = entry.mbr.upper
            child_start[slot], child_end[slot] = place(entry.child, depth + 1)
            post[slot] = kernel_cursor
        return start, end

    root = tree.root
    place(root, 0)
    if dir_cursor != n_dir or kernel_cursor != total_entries:
        raise AssertionError("flat compilation lost entries during the pre-order walk")

    columns = {
        "entry_means": entry_means,
        "entry_n": entry_n,
        "entry_scales": entry_scales,
        "kernel_scale": np.array(kernel_scale, dtype=float),
        "entry_levels": entry_levels,
        "entry_depth": entry_depth,
        "child_start": child_start,
        "child_end": child_end,
        "post": post,
        "dir_mbr_lower": dir_mbr_lower,
        "dir_mbr_upper": dir_mbr_upper,
    }
    meta = {
        "n_entries": total_entries,
        "n_leaf": n_leaf,
        "root_count": len(root.entries),
        "root_level": int(root.level),
        "n_nodes": len(nodes),
        "n_leaf_nodes": n_leaf_nodes,
        "height": int(tree.height()),
        "leaf_capacity": int(tree.config.tree.leaf_capacity),
        "kernel_kind": kernel_kind,
    }
    return FlatTree(columns, meta, {"prior_weight": float(tree.prior_weight)})


def _empty_flat_tree(tree: BayesTree) -> FlatTree:
    """Flat form of an empty (fully expired) class tree: all-zero columns."""
    dimension = tree.dimension
    columns = {
        "entry_means": np.zeros((0, dimension)),
        "entry_n": np.zeros(0),
        "entry_scales": np.zeros((0, dimension)),
        "kernel_scale": np.zeros(dimension),
        "entry_levels": np.zeros(0, dtype=np.int64),
        "entry_depth": np.zeros(0, dtype=np.int64),
        "child_start": np.zeros(0, dtype=np.int64),
        "child_end": np.zeros(0, dtype=np.int64),
        "post": np.zeros(0, dtype=np.int64),
        "dir_mbr_lower": np.zeros((0, dimension)),
        "dir_mbr_upper": np.zeros((0, dimension)),
    }
    meta = {
        "n_entries": 0,
        "n_leaf": 0,
        "root_count": 0,
        "root_level": 0,
        "n_nodes": 0,
        "n_leaf_nodes": 0,
        "height": 0,
        "leaf_capacity": int(tree.config.tree.leaf_capacity),
        "kernel_kind": _kernel_kind(tree),
    }
    return FlatTree(columns, meta, {"prior_weight": 0.0})


def _kernel_kind(tree: BayesTree) -> int:
    """The component kind of the tree's kernels (``config.kernel``)."""
    return EPANECHNIKOV_KIND if tree.config.kernel == "epanechnikov" else GAUSSIAN_KIND

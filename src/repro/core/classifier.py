"""Anytime Bayesian stream classification with one Bayes tree per class.

The classifier follows the paper exactly:

* one Bayes tree is built per class (§2.2),
* the class priors are the relative class weights over the forest — the
  training-set frequencies for a never-forgetting forest, and the relative
  *decayed* class weights once an exponential ``decay_rate`` is configured
  (old observations lose their vote, so the priors track the current class
  distribution of an evolving stream),
* a query is classified with the Bayes rule over the current frontier models
  ``G(x) = argmax_c P(c) * pdq_c(x)``, refined one node read at a time with
  the k most probable classes refining "in turns" (qbk, §2.2) — the lockstep
  driver of :mod:`repro.core.driver`,
* interrupting at any point yields the prediction of the current models — the
  anytime property.

This is the write side of the forest: training, decay and the class trees'
object graphs.  Every anytime read runs over the class trees' cached flat
twins (:meth:`BayesTree.flat_twin`), through the same driver that serves a
compiled :class:`~repro.core.flat.FlatForest`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence

import numpy as np

from ..stats.gaussian import probabilities_from_log
from .bayes_tree import BayesTree, finite_points
from .config import BayesTreeConfig
from .descent import DescentStrategy, make_descent_strategy
from .driver import classify_forest, predict_forest
from .flat import FlatForest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from .driver import AnytimeClassification
    from .flat import FlatTree

__all__ = ["AnytimeBayesClassifier"]


class AnytimeBayesClassifier:
    """Bayes-tree ensemble classifier (one tree per class) with anytime queries."""

    def __init__(
        self,
        config: Optional[BayesTreeConfig] = None,
        descent: str | DescentStrategy = "glo",
        qbk_k: Optional[int] = None,
    ) -> None:
        self.config = config or BayesTreeConfig()
        self.descent = descent if isinstance(descent, DescentStrategy) else make_descent_strategy(descent)
        self.qbk_k = qbk_k
        self.trees: Dict[Hashable, BayesTree] = {}
        self.dimension: Optional[int] = None
        self._priors_cache: Optional[Dict[Hashable, float]] = None
        self._log_priors_cache: Optional[Dict[Hashable, float]] = None
        #: Forest-wide logical time: every class tree's clock is kept at this
        #: value so decayed priors and per-class mixture weights are always
        #: compared at the same "now".
        self._now = 0.0

    # -- training -------------------------------------------------------------------------------
    @property
    def classes(self) -> List[Hashable]:
        """Known class labels, in insertion order (one Bayes tree each)."""
        return list(self.trees.keys())

    @property
    def n_classes(self) -> int:
        """Number of known classes (trees), including currently empty ones."""
        return len(self.trees)

    @property
    def is_fitted(self) -> bool:
        """True once at least one training object has been seen."""
        return bool(self.trees)

    def fit(self, points: np.ndarray, labels: Sequence[Hashable]) -> "AnytimeBayesClassifier":
        """Train one Bayes tree per class by iterative insertion."""
        points = finite_points(points)
        if points.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        labels = list(labels)
        if len(labels) != points.shape[0]:
            raise ValueError("labels must match the number of points")
        self.dimension = points.shape[1]
        self.trees = {}
        # A from-scratch fit starts a fresh timeline: the new trees' clocks
        # begin at 0, so the forest clock must not retain a stale "now" (a
        # lower timestamp would otherwise be silently clamped and decay
        # would never engage after a re-fit).
        self._now = 0.0
        for label in sorted(set(labels), key=repr):
            mask = np.array([l == label for l in labels])
            tree = BayesTree(dimension=self.dimension, config=self.config)
            tree.fit(points[mask], label=label)
            self.trees[label] = tree
        self._invalidate_priors()
        return self

    def set_tree(self, label: Hashable, tree: BayesTree) -> None:
        """Attach an externally built (e.g. bulk-loaded) tree for a class.

        The forest and the new tree synchronise clocks to the later of the
        two "now"s, so decayed priors across classes stay comparable.
        """
        if self.dimension is None:
            self.dimension = tree.dimension
        if tree.dimension != self.dimension:
            raise ValueError("tree dimensionality does not match the classifier")
        self.trees[label] = tree
        if tree.clock.now > self._now:
            self.advance_time(tree.clock.now)
        else:
            tree.advance_time(self._now)
        self._invalidate_priors()

    def advance_time(self, now: float) -> float:
        """Advance the forest's logical clock (drives exponential decay).

        Every class tree is moved to the same ``now`` (clamped monotone), so
        decayed priors and mixture weights across classes stay comparable.
        Aging of stored summaries is lazy — pure time passage costs
        O(#classes) — and a non-advancing call returns in O(1) (the stream
        driver advances once per chunk; the per-item ``partial_fit``
        timestamps that follow are never ahead of it).  Because advancing
        time can trigger expiry sweeps that change per-class weights, the
        prior cache is invalidated whenever the clock actually moves.
        """
        now = float(now)
        if now <= self._now:
            return self._now
        self._now = now
        for tree in self.trees.values():
            tree.advance_time(now)
        self._invalidate_priors()
        return self._now

    def partial_fit(
        self,
        point: Sequence[float] | np.ndarray,
        label: Hashable,
        timestamp: Optional[float] = None,
    ) -> None:
        """Incremental online learning from one new labelled object (stream training).

        O(d) model maintenance on top of the O(log n) index insertion: the
        class tree updates its Silverman bandwidth from running sufficient
        statistics (historically this re-ran Silverman's rule over the *full*
        training set and stamped a copy into every leaf entry — Θ(n) per
        insert, Θ(n²) per stream), and the prior cache is invalidated in
        O(1) and re-derived from the trees' (decayed) weights the next time
        it is read.  A NaN or infinite coordinate is refused (``ValueError``)
        before the clock moves or the label gets a tree.

        ``timestamp`` advances the forest clock before learning, so the new
        kernel is stamped with its arrival time and older data keeps fading
        (ignored — a no-op — when the configured ``decay_rate`` is zero).
        """
        point = finite_points(point)
        if timestamp is not None:
            self.advance_time(timestamp)
        if self.dimension is None:
            self.dimension = point.shape[0]
        if label not in self.trees:
            tree = BayesTree(dimension=self.dimension, config=self.config)
            tree.advance_time(self._now)
            self.trees[label] = tree
        self.trees[label].insert(point, label=label)
        self._invalidate_priors()

    # -- persistence ----------------------------------------------------------------------------
    def save(self, path: "str | Path") -> "Path":
        """Write a portable snapshot of the whole forest (see :mod:`repro.persist`).

        The snapshot is a versioned, pickle-free ``.npz`` container carrying
        the full decay state; :meth:`load` restores a forest with
        bit-identical predictions and training behaviour.
        """
        from ..persist import save_forest

        return save_forest(self, path)

    @classmethod
    def load(cls, path: "str | Path") -> "AnytimeBayesClassifier":
        """Restore a forest saved with :meth:`save` (bit-identical behaviour)."""
        from ..persist import load_forest

        return load_forest(path)

    def _invalidate_priors(self) -> None:
        self._priors_cache = None
        self._log_priors_cache = None

    def _rebuild_priors(self) -> None:
        total = float(sum(tree.prior_weight for tree in self.trees.values()))
        if total <= 0:
            self._priors_cache = {label: 0.0 for label in self.trees}
        else:
            self._priors_cache = {
                label: tree.prior_weight / total for label, tree in self.trees.items()
            }
        self._log_priors_cache = {
            label: math.log(prior) if prior > 0 else -math.inf
            for label, prior in self._priors_cache.items()
        }

    @property
    def priors(self) -> Dict[Hashable, float]:
        """Class priors P(c), rebuilt lazily.

        Relative class frequencies in the training data; under exponential
        decay, relative *decayed* class weights — old observations lose their
        vote, so the priors of a forest on an evolving stream track the
        current class distribution instead of the historical one.  Because
        all classes decay by the same global factor, the ratios only change
        when data arrives or expires, which is what makes the O(1)
        invalidate-on-insert caching sound under decay too.
        """
        if self._priors_cache is None:
            self._rebuild_priors()
        return self._priors_cache

    @property
    def log_priors(self) -> Dict[Hashable, float]:
        """Log class priors, rebuilt lazily alongside :attr:`priors`."""
        if self._log_priors_cache is None:
            self._rebuild_priors()
        return self._log_priors_cache

    # -- anytime classification -------------------------------------------------------------------
    def _twins(self) -> Dict[Hashable, "FlatTree"]:
        """Every class tree's cached flat twin: what the anytime reads run over."""
        return {label: tree.flat_twin() for label, tree in self.trees.items()}

    def classify_anytime(
        self,
        query: Sequence[float] | np.ndarray,
        max_nodes: int,
    ) -> AnytimeClassification:
        """Classify ``query`` and record the prediction after every node read.

        ``max_nodes`` is the total number of additional node reads across all
        class trees (the unit of the x-axis in the paper's Figures 2-4).  The
        k most probable classes refine in turns (qbk, §2.2).  This is the
        lockstep driver of :meth:`classify_anytime_batch` on one row.
        """
        queries = np.asarray(query, dtype=float)[None, :]
        return classify_forest(self, self._twins(), queries, max_nodes, True)[0]

    # -- batch anytime classification --------------------------------------------------------------
    def classify_anytime_batch(
        self,
        queries: np.ndarray,
        max_nodes: int | Sequence[int] | np.ndarray,
        record_history: bool = True,
    ) -> List[AnytimeClassification]:
        """Classify many queries at once, advancing their frontiers in lockstep.

        Produces exactly the same per-query results as calling
        :meth:`classify_anytime` in a loop (each query's refinement sequence
        is independent of the others, and :meth:`classify_anytime` is this
        driver on one row), but amortises the work: the root
        models are packed once and evaluated for a whole chunk of queries
        with one batched call per class, per round every active query
        performs one node read, the reads are grouped by tree node, and each
        node's children are evaluated against all queries in the group with a
        single batched log density call.  Queries advance in lockstep in
        chunks of ``BATCH_CHUNK_QUERIES``, bounding the number of
        simultaneously live frontier buffers for arbitrarily large batches.

        ``max_nodes`` is either one shared node budget or a per-query budget
        sequence of the same length as ``queries`` (the anytime stream driver
        classifies micro-batches whose items carry individual arrival
        budgets); a query stops refining once its own budget is exhausted.

        ``record_history=False`` records only the final step of each query
        (``final_prediction`` and the last posteriors) instead of the full
        per-node-read trace — the budgeted :meth:`predict_batch` path uses it
        to skip the per-step record allocations entirely.
        """
        return classify_forest(self, self._twins(), queries, max_nodes, record_history)

    # -- convenience prediction APIs -----------------------------------------------------------------
    def predict(self, query: Sequence[float] | np.ndarray, node_budget: Optional[int] = None) -> Hashable:
        """Predict a single label with a given node budget (full refinement if None)."""
        if node_budget is None:
            node_budget = sum(tree.node_count() for tree in self.trees.values())
        return self.classify_anytime(query, max_nodes=node_budget).final_prediction

    def predict_batch(
        self, queries: np.ndarray, node_budget: Optional[int] = None
    ) -> List[Hashable]:
        """Predict labels for several queries with the same node budget.

        ``node_budget=None`` (full refinement) takes the flat vectorised path:
        every class's complete kernel model is evaluated for all queries with
        one batched call over its twin's kernel block, skipping the
        tree descent entirely (a class tree changed since its last read is
        compiled first).  A finite budget goes through
        :meth:`classify_anytime_batch`.
        """
        return predict_forest(self, self._twins(), queries, node_budget)

    # -- flat compilation ---------------------------------------------------------------------------
    def compile_flat(self) -> "FlatForest":
        """Compile the live forest into its flat columnar twin.

        Returns a :class:`repro.core.flat.FlatForest` over the class trees'
        cached twins — the very columns the live forest's anytime reads use,
        so it is trace-hash-identical on every prediction API (see
        :mod:`repro.core.flat`), and no tree whose model is unchanged since
        its last read is compiled again.  The compiled forest captures the
        decayed state at the current logical time and does not follow
        subsequent training.
        """
        if not self.is_fitted:
            raise ValueError("classifier has not been fitted")
        return FlatForest(
            trees=self._twins(),
            log_priors=dict(self.log_priors),
            descent=self.descent,
            qbk_k=self.qbk_k,
            dimension=int(self.dimension),
        )

    def posterior_probabilities(
        self, query: Sequence[float] | np.ndarray, node_budget: Optional[int] = None
    ) -> Dict[Hashable, float]:
        """Normalised posterior P(c | x) after spending the given node budget.

        Normalisation happens in log space (log-sum-exp), so queries far from
        the training data yield exact posteriors instead of the historical
        all-zero underflow; the uniform fallback only remains for densities
        that are exactly zero (e.g. outside every Epanechnikov support).
        """
        if node_budget is None:
            node_budget = sum(tree.node_count() for tree in self.trees.values())
        result = self.classify_anytime(query, max_nodes=node_budget)
        log_raw = result.log_posteriors[-1]
        labels = list(log_raw.keys())
        values = np.array([log_raw[label] for label in labels])
        if not np.any(np.isfinite(values)):
            return {label: 1.0 / len(labels) for label in labels}
        normalised = probabilities_from_log(values)
        return {label: float(p) for label, p in zip(labels, normalised)}

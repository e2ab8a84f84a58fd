"""Anytime Bayesian stream classification with one Bayes tree per class.

The classifier follows the paper exactly:

* one Bayes tree is built per class (§2.2),
* the class priors are the relative class weights over the forest — the
  training-set frequencies for a never-forgetting forest, and the relative
  *decayed* class weights once an exponential ``decay_rate`` is configured
  (old observations lose their vote, so the priors track the current class
  distribution of an evolving stream),
* a query is classified with the Bayes rule over the current frontier models
  ``G(x) = argmax_c P(c) * pdq_c(x)``,
* with more time allowance the frontiers are refined one node read at a time,
  where the *qbk* improvement strategy gives the k currently most probable
  classes the right to refine "in turns" (§2.2),
* interrupting at any point yields the prediction of the current models — the
  anytime property.

All posteriors are computed and compared in **log space**
(``log P(c) + log pdq_c(x)``): in high dimensions the linear-space product
underflows to exact zero for every class, which used to degrade the argmax to
a tie-break by label repr.  ``classify_anytime_batch`` advances many queries'
frontiers in lockstep so that queries reading the same tree node share one
vectorised evaluation of its children, and ``classify_anytime`` is that same
driver on one row (see DESIGN.md, batch API).  Every anytime read runs over
the class trees' cached flat twins (:meth:`BayesTree.flat_twin`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..stats.gaussian import probabilities_from_log, safe_exp
from .bayes_tree import BayesTree
from .config import BayesTreeConfig, default_qbk_k
from .descent import DescentStrategy, make_descent_strategy
from .frontier import Frontier, FrontierItem, component_log_densities

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from .flat import FlatForest, FlatTree

__all__ = ["AnytimeClassification", "AnytimeBayesClassifier"]

#: Queries processed per lockstep round in the budgeted predict_batch path;
#: bounds the number of simultaneously live frontiers and per-step records.
BATCH_CHUNK_QUERIES = 256


def _exp_values(log_posterior: Dict[Hashable, float]) -> Dict[Hashable, float]:
    """Linear-space view of a log-posterior dict (saturates instead of raising)."""
    return {label: safe_exp(value) for label, value in log_posterior.items()}


@dataclass
class AnytimeClassification:
    """Evolving result of an anytime classification of one query object.

    Attributes
    ----------
    query:
        The classified object.
    predictions:
        ``predictions[t]`` is the predicted label after ``t`` additional node
        reads (``predictions[0]`` uses only the root models).
    log_posteriors:
        Per-step dictionaries with the exact log-space posteriors
        ``log P(c) + log pdq_c(x)`` that drive the predictions.
    nodes_read:
        Total number of node reads performed (may be smaller than requested
        when every tree is fully refined).

    ``posteriors`` exposes the linear-space view (which may underflow to 0.0
    or saturate to inf); it is derived lazily so the classification hot path
    only records log values.
    """

    query: np.ndarray
    predictions: List[Hashable] = field(default_factory=list)
    log_posteriors: List[Dict[Hashable, float]] = field(default_factory=list)
    nodes_read: int = 0

    @property
    def posteriors(self) -> Tuple[Dict[Hashable, float], ...]:
        """Linear-space unnormalised posteriors ``P(c) * pdq_c(x)`` per step.

        A derived, read-only view (a tuple, so appending to it — the old
        mutable-field API — fails loudly instead of silently vanishing).
        """
        return tuple(_exp_values(log_posterior) for log_posterior in self.log_posteriors)

    @property
    def final_prediction(self) -> Hashable:
        """The prediction after the last node read (the anytime answer so far)."""
        return self.predictions[-1]

    def prediction_after(self, nodes: int) -> Hashable:
        """Prediction available after ``nodes`` node reads (clamped to the end)."""
        if nodes < 0:
            raise ValueError("nodes must be non-negative")
        if nodes < self.nodes_read and len(self.predictions) < self.nodes_read + 1:
            raise ValueError(
                "per-step history was not recorded (record_history=False); "
                "only final_prediction is available"
            )
        index = min(nodes, len(self.predictions) - 1)
        return self.predictions[index]


class _QbkRotation:
    """Explicit bookkeeping for the qbk "in turns" rotation (paper §2.2).

    The previous implementation re-ranked the classes every step and indexed
    the fresh top-k list with a global turn counter; whenever a frontier
    exhausted or the posterior ranking reordered, classes were skipped or
    served twice in a row instead of refining "in turns".  Tracking how often
    each class has been served and always picking the least-served member of
    the current top-k (posterior rank breaking ties) restores a fair rotation
    that is robust to both.  Serve counts are clamped to one below the
    current top-k maximum, so a class entering the top-k late joins the
    rotation at parity (at most one catch-up read) instead of monopolising
    refinement until its historical count catches up.
    """

    __slots__ = ("_serves",)

    def __init__(self) -> None:
        self._serves: Dict[Hashable, int] = {}

    def serves(self, label: Hashable) -> int:
        """How often ``label`` has been granted a node read so far."""
        return self._serves.get(label, 0)

    def next(self, ranked_top: Sequence[Hashable]) -> Hashable:
        """Pick the next class from the current top-k (best-first order)."""
        if not ranked_top:
            raise ValueError("ranked_top must not be empty")
        floor = max(self._serves.get(label, 0) for label in ranked_top) - 1
        effective = [
            max(self._serves.get(label, 0), floor) for label in ranked_top
        ]
        index = min(range(len(ranked_top)), key=lambda i: (effective[i], i))
        label = ranked_top[index]
        self._serves[label] = effective[index] + 1
        return label


@dataclass
class _BatchQueryState:
    """Per-query bookkeeping of the lockstep batch classification driver."""

    frontiers: Dict[Hashable, Frontier]
    rotation: _QbkRotation
    log_posterior: Dict[Hashable, float]
    result: AnytimeClassification
    budget: int
    active: bool = True


# -- shared classification drivers -------------------------------------------------------------
#
# The anytime driver below reads flat trees only: a mapping of alive
# per-class :class:`~repro.core.flat.FlatTree` columns answering
# ``expand(slot)``, ``min_distance(slot, query)`` and
# ``frontier(query, root_log_densities=...)``, plus the forest-wide log
# priors.  The live forest (:class:`AnytimeBayesClassifier`, over each class
# tree's cached twin) and the compiled flat forest
# (:class:`repro.core.flat.FlatForest`) both reach it through the one set of
# checks in :func:`classify_forest` and :func:`predict_forest` —
# ``classify_anytime`` is the lockstep driver on one row — so there is one
# read path and nothing for the two forests to diverge on.


def _posterior_argmax(posterior: Dict[Hashable, float]) -> Hashable:
    """Deterministic argmax: ties break by label ``repr`` (reproducible runs)."""
    return max(sorted(posterior.keys(), key=repr), key=lambda label: posterior[label])


def _record_step(result: AnytimeClassification, log_posterior: Dict[Hashable, float]) -> None:
    result.predictions.append(_posterior_argmax(log_posterior))
    result.log_posteriors.append(dict(log_posterior))


def _posterior_of(
    frontiers: Dict[Hashable, Frontier], log_priors: Dict[Hashable, float]
) -> Dict[Hashable, float]:
    """Unnormalised log posteriors ``log P(c) + log pdq_c(x)``."""
    return {
        label: log_priors[label] + frontier.log_density
        for label, frontier in frontiers.items()
    }


def _choose_refinement(
    frontiers: Dict[Hashable, Frontier],
    log_posterior: Dict[Hashable, float],
    k: int,
    rotation: _QbkRotation,
) -> Optional[Hashable]:
    """Pick the class whose frontier gets the next node read (qbk, §2.2)."""
    refinable = [label for label, frontier in frontiers.items() if not frontier.is_fully_refined]
    if not refinable:
        return None
    ranked = sorted(
        refinable,
        key=lambda label: (-log_posterior[label], repr(label)),
    )
    top = ranked[: max(1, min(k, len(ranked)))]
    return rotation.next(top)


def _refine_group(members: List[Tuple[Frontier, FrontierItem]]) -> None:
    """Refine one tree node for every query in ``members`` with one evaluation.

    All members read the same node of the same class tree, so one
    ``tree.expand`` serves the group: its children's component parameters
    (including the tree's variance inflation) are identical across the
    group, and the children's log densities for all member queries form one
    batched call.
    """
    first_frontier, first_item = members[0]
    children = first_frontier.tree.expand(first_item.entry)
    if len(members) == 1:
        for frontier, item in members:
            frontier.refine_item(item, children=children)
        return
    means, scales, kinds, _ = children[2]
    batch = np.stack([frontier.query for frontier, _ in members])
    log_densities = component_log_densities(batch, means, scales, kinds)
    for row, (frontier, item) in enumerate(members):
        frontier.refine_item(item, child_log_densities=log_densities[row], children=children)


def drive_classify_anytime_batch(
    trees: Dict[Hashable, "FlatTree"],
    log_priors: Dict[Hashable, float],
    descent: DescentStrategy,
    k: int,
    queries: np.ndarray,
    budgets: np.ndarray,
    record_history: bool,
) -> List[AnytimeClassification]:
    """Lockstep batch driver over validated queries/budgets (chunked)."""
    results: List[AnytimeClassification] = []
    for start in range(0, queries.shape[0], BATCH_CHUNK_QUERIES):
        results.extend(
            _drive_batch_chunk(
                trees,
                log_priors,
                descent,
                k,
                queries[start : start + BATCH_CHUNK_QUERIES],
                budgets[start : start + BATCH_CHUNK_QUERIES],
                record_history,
            )
        )
    return results


def _drive_batch_chunk(
    trees: Dict[Hashable, "FlatTree"],
    log_priors: Dict[Hashable, float],
    descent: DescentStrategy,
    k: int,
    queries: np.ndarray,
    budgets: np.ndarray,
    record_history: bool,
) -> List[AnytimeClassification]:
    """Lockstep batch driver for one bounded chunk of queries."""
    # One packing of each class's root model and one vectorised evaluation
    # of it for the whole chunk; each frontier is seeded with its query's
    # row instead of re-evaluating the root entries per query.
    root_rows: List[Tuple[Hashable, "FlatTree", np.ndarray]] = []
    for label, tree in trees.items():
        means, scales, kinds, _ = tree.expand(None)[2]
        root_rows.append(
            (label, tree, component_log_densities(queries, means, scales, kinds))
        )

    states: List[_BatchQueryState] = []
    for position, query in enumerate(queries):
        frontiers = {
            label: tree.frontier(query, root_log_densities=rows[position])
            for label, tree, rows in root_rows
        }
        result = AnytimeClassification(query=query)
        log_posterior = _posterior_of(frontiers, log_priors)
        if record_history:
            _record_step(result, log_posterior)
        states.append(
            _BatchQueryState(
                frontiers=frontiers,
                rotation=_QbkRotation(),
                log_posterior=log_posterior,
                result=result,
                budget=int(budgets[position]),
            )
        )

    while True:
        # Each active query chooses its next node read (qbk rotation +
        # descent strategy), and the planned reads are grouped by tree node
        # — ``(label, slot)`` — so all queries reading the same node share
        # one vectorised evaluation of its children.
        planned: List[_BatchQueryState] = []
        groups: Dict[Tuple[Hashable, int], List[Tuple[Frontier, FrontierItem]]] = {}
        for state in states:
            if not state.active:
                continue
            if state.result.nodes_read >= state.budget:
                state.active = False
                continue
            label = _choose_refinement(state.frontiers, state.log_posterior, k, state.rotation)
            if label is None:
                state.active = False
                continue
            frontier = state.frontiers[label]
            item = descent.choose(frontier.refinable_items(), frontier.query, frontier.tree)
            groups.setdefault((label, item.entry), []).append((frontier, item))
            planned.append(state)
        if not planned:
            break
        for members in groups.values():
            _refine_group(members)

        for state in planned:
            state.result.nodes_read += 1
            state.log_posterior = _posterior_of(state.frontiers, log_priors)
            if record_history:
                _record_step(state.result, state.log_posterior)
    if not record_history:
        for state in states:
            _record_step(state.result, state.log_posterior)
    return [state.result for state in states]


def drive_predict_full(
    trees: Mapping[Hashable, "FlatTree"],
    log_priors: Dict[Hashable, float],
    queries: np.ndarray,
) -> List[Hashable]:
    """Fully-refined batch prediction straight from the packed leaf arrays."""
    labels = sorted(trees.keys(), key=repr)
    scores = np.empty((queries.shape[0], len(labels)))
    for column, label in enumerate(labels):
        scores[:, column] = log_priors[label] + trees[label].log_density_batch(queries)
    # Labels are repr-sorted and np.argmax returns the first maximum, so
    # ties break exactly like :func:`_posterior_argmax`.
    best = np.argmax(scores, axis=1)
    return [labels[index] for index in best]


def validate_batch_budgets(
    count: int, max_nodes: int | Sequence[int] | np.ndarray, *, name: str = "max_nodes"
) -> np.ndarray:
    """Normalise ``max_nodes`` into one non-negative int budget for each of ``count`` queries.

    Refusals name ``name``, the caller's parameter that carried the budgets.
    """
    budgets = np.asarray(max_nodes)
    if budgets.dtype.kind not in "iu":
        # Float budgets are refused, not truncated: truncation would
        # silently under-budget queries.
        raise ValueError(f"{name} must be an integer or a sequence of integers")
    if budgets.ndim == 0:
        budgets = np.full(count, int(budgets))
    elif budgets.shape != (count,):
        raise ValueError(f"per-query {name} must have one budget per query")
    if np.any(budgets < 0):
        raise ValueError(f"{name} must be non-negative")
    return budgets


def alive_trees(trees: Mapping[Hashable, "FlatTree"]) -> Dict[Hashable, "FlatTree"]:
    """Class trees that still hold observations.

    A class can empty out when expiry drops its last stale kernel (class
    disappearance on an evolving stream); its tree is kept — the class
    may recur — but it cannot be queried until new data arrives.
    """
    alive = {label: tree for label, tree in trees.items() if tree.n_objects > 0}
    if not alive:
        raise ValueError("classifier holds no training observations (all expired)")
    return alive


def fitted_queries(
    forest: "AnytimeBayesClassifier | FlatForest", queries: np.ndarray
) -> np.ndarray:
    """``queries`` as an ``(m, d)`` float array for a fitted ``forest``."""
    if not forest.is_fitted:
        raise ValueError("classifier has not been fitted")
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2:
        raise ValueError("queries must be an (m, d) array")
    return queries


def classify_forest(
    forest: "AnytimeBayesClassifier | FlatForest",
    flat_trees: Mapping[Hashable, "FlatTree"],
    queries: np.ndarray,
    max_nodes: int | Sequence[int] | np.ndarray,
    record_history: bool,
) -> List[AnytimeClassification]:
    """``classify_anytime(_batch)`` of either forest: the lockstep driver.

    ``flat_trees`` holds one flat tree per known class, empty ones
    included; qbk's k is clamped to the number of known classes.
    """
    queries = fitted_queries(forest, queries)
    budgets = validate_batch_budgets(queries.shape[0], max_nodes)
    n_classes = forest.n_classes
    if forest.qbk_k is not None:
        k = max(1, min(forest.qbk_k, n_classes))
    else:
        k = min(default_qbk_k(n_classes), n_classes)
    return drive_classify_anytime_batch(
        alive_trees(flat_trees), forest.log_priors, forest.descent, k, queries, budgets,
        record_history,
    )


def predict_forest(
    forest: "AnytimeBayesClassifier | FlatForest",
    flat_trees: Mapping[Hashable, "FlatTree"],
    queries: np.ndarray,
    node_budget: Optional[int],
) -> List[Hashable]:
    """``predict_batch`` of either forest.

    ``node_budget=None`` (full refinement) evaluates every alive class's
    packed leaf arrays in ``flat_trees`` for all queries at once, skipping
    the descent; a finite budget goes through the forest's
    ``classify_anytime_batch``.
    """
    queries = fitted_queries(forest, queries)
    if node_budget is None:
        return drive_predict_full(alive_trees(flat_trees), forest.log_priors, queries)
    results = forest.classify_anytime_batch(
        queries, max_nodes=node_budget, record_history=False
    )
    return [result.final_prediction for result in results]


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
        points = np.asarray(points, dtype=float)
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

        Amortised O(d) model maintenance on top of the O(log n) index
        insertion: the class tree updates its Silverman bandwidth from running
        sufficient statistics and patches its packed leaf arrays in place
        (historically this re-ran Silverman's rule over the *full* training
        set and restamped every leaf entry — Θ(n) per insert, Θ(n²) per
        stream), and the prior cache is invalidated in O(1) and re-derived
        from the trees' (decayed) weights the next time it is read.

        ``timestamp`` advances the forest clock before learning, so the new
        kernel is stamped with its arrival time and older data keeps fading
        (ignored — a no-op — when the configured ``decay_rate`` is zero).
        """
        point = np.asarray(point, dtype=float)
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
        one batched call over its twin's packed leaf arrays, skipping the
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
        :mod:`repro.core.flat`).  The compiled forest captures the decayed
        state at the current logical time and does not follow subsequent
        training.
        """
        from .flat import FlatForest

        return FlatForest.from_classifier(self)

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

"""The lockstep anytime driver: the read path every forest classifies through.

A forest is classified with the Bayes rule over the current frontier models
``G(x) = argmax_c P(c) * pdq_c(x)`` (paper §2.2).  With more time allowance
the frontiers are refined one node read at a time, where the *qbk*
improvement strategy gives the k currently most probable classes the right
to refine "in turns"; interrupting at any point yields the prediction of the
current models — the anytime property.

All posteriors are computed and compared in **log space**
(``log P(c) + log pdq_c(x)``): in high dimensions the linear-space product
underflows to exact zero for every class, which used to degrade the argmax
to a tie-break by label repr.  :func:`drive_classify_anytime_batch` advances
many queries' frontiers in lockstep so that queries reading the same tree
node share one vectorised evaluation of its children; one-row anytime
classification is that same driver on one row (see DESIGN.md, batch API).

This module reads flat trees only: a mapping of alive per-class
:class:`~repro.core.flat.FlatTree` columns answering ``expand(slot)``,
``min_distance(slot, query)`` and ``frontier(query, root_log_densities=...)``,
plus the forest-wide log priors.  The live forest
(:class:`~repro.core.classifier.AnytimeBayesClassifier`, over each class
tree's cached twin) and the compiled flat forest
(:class:`~repro.core.flat.FlatForest`) both reach it through the one set of
checks in :func:`classify_forest` and :func:`predict_forest`, so there is
one read path and nothing for the two forests to diverge on.  It imports
nothing of the write side (the R* index, the live tree), so a process that
only serves snapshots never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..stats.gaussian import safe_exp
from .descent import DescentStrategy
from .frontier import Frontier, component_log_densities

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .classifier import AnytimeBayesClassifier
    from .flat import FlatForest, FlatTree

__all__ = [
    "AnytimeClassification",
    "BATCH_CHUNK_QUERIES",
    "alive_trees",
    "classify_forest",
    "default_qbk_k",
    "drive_classify_anytime_batch",
    "drive_predict_full",
    "fitted_queries",
    "predict_forest",
    "validate_batch_budgets",
]

#: Queries processed per lockstep round in the budgeted predict_batch path;
#: bounds the number of simultaneously live frontiers and per-step records.
BATCH_CHUNK_QUERIES = 256


def default_qbk_k(n_classes: int) -> int:
    """The paper's default for the qbk improvement strategy.

    "k = min{2, blog(m)c}, where m is the number of classes, showed the best
    performance on all tested data sets" (paper §2.2), and §3.2 states that
    k = 2 was used for all four evaluation data sets — including the binary
    gender set.  We therefore use k = 2 whenever at least two classes exist
    (k = 1 for the degenerate single-class case).
    """
    if n_classes < 1:
        raise ValueError("n_classes must be positive")
    return min(2, n_classes)


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


def _refine_group(members: List[Tuple[Frontier, int]]) -> None:
    """Refine one tree node for every query in ``members`` with one evaluation.

    Each member is a frontier and the row it refines.  All members read the
    same node of the same class tree, so one ``tree.expand`` serves the
    group: its children's component parameters (including the tree's
    variance inflation) are identical across the group, and the children's
    log densities for all member queries form one batched call.
    """
    first_frontier, first_row = members[0]
    children = first_frontier.tree.expand(first_frontier.handles[first_row])
    if len(members) == 1:
        first_frontier.refine_item(first_row, children=children)
        return
    means, scales, kinds, _ = children[2]
    batch = np.stack([frontier.query for frontier, _ in members])
    log_densities = component_log_densities(batch, means, scales, kinds)
    for position, (frontier, row) in enumerate(members):
        frontier.refine_item(row, child_log_densities=log_densities[position], children=children)


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
        # — ``(label, handle)`` — so all queries reading the same node share
        # one vectorised evaluation of its children.
        planned: List[_BatchQueryState] = []
        groups: Dict[Tuple[Hashable, int], List[Tuple[Frontier, int]]] = {}
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
            row = descent.choose(frontier)
            groups.setdefault((label, frontier.handles[row]), []).append((frontier, row))
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
    """``queries`` as an ``(m, d)`` float array of finite values for a fitted ``forest``.

    A NaN or infinite feature makes every class's density NaN or zero, so
    such a row has no prediction; it is refused (``ValueError``) instead of
    being given the label that wins the tie-break.
    """
    if not forest.is_fitted:
        raise ValueError("classifier has not been fitted")
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2:
        raise ValueError("queries must be an (m, d) array")
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite (no NaN or infinity)")
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

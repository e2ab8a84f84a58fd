"""The object-graph read path, kept as the reference the flat twins answer to.

The library classifies through flat columns only: a live
:class:`~repro.core.BayesTree` compiles itself into a
:class:`~repro.core.FlatTree` twin and every frontier refines over slot ints.
Before that, a frontier over a live tree held the tree's index entries as
handles, expanded an entry by packing ``entry.child.entries`` with
``_entry_batch_params`` under the tree's variance inflation, and measured
geometric descent on the entries' own MBRs.  :class:`ObjectGraphTree`
answers the driver's ``expand`` / ``min_distance`` / ``frontier`` calls that
way, so :func:`reference_classify` computes every anytime trace without
reading anything ``compile_flat_tree`` wrote: a compile that drops a decay
sync or misplaces a child block disagrees with it.

Frontiers built here hold index entries as their rows' handles, which also
makes them the place for the entry-only checks (:func:`density_from_scratch`,
:func:`represented_objects`).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.core import AnytimeBayesClassifier, BayesTree, Frontier
from repro.core.bayes_tree import _entry_batch_params, pdq_scalar
from repro.core.driver import AnytimeClassification, classify_forest


class ObjectGraphTree:
    """A live :class:`BayesTree` read through its index entries."""

    def __init__(self, tree: BayesTree) -> None:
        self.tree = tree

    @property
    def n_objects(self) -> int:
        return self.tree.n_objects

    def expand(self, entry):
        """The entries below ``entry`` (the root block for ``None``), packed.

        Returns ``(entries, levels, (means, scales, kinds, n_objects))``: a
        node's entries are all of one kind, so every entry gets
        ``node.level - 1`` (-1 for kernels).
        """
        tree = self.tree
        tree._sync_decay()
        node = tree.root if entry is None else entry.child
        params = _entry_batch_params(
            node.entries, tree._variance_inflation(), tree.bandwidth, kernel=tree.config.kernel
        )
        return node.entries, [node.level - 1] * len(node.entries), params

    @staticmethod
    def min_distance(entry, query: np.ndarray) -> float:
        """MINDIST from ``query`` to ``entry``'s MBR."""
        return entry.mbr.min_distance(query)

    def frontier(self, query, root_log_densities: Optional[np.ndarray] = None) -> Frontier:
        """A frontier over the index entries, initialised at the root model."""
        tree = self.tree
        if tree.n_objects == 0:
            raise ValueError("cannot query an empty Bayes tree")
        query = np.asarray(query, dtype=float)
        if query.shape != (tree.dimension,):
            raise ValueError(f"query must have shape ({tree.dimension},)")
        return Frontier(self, query, root_log_densities)


def reference_frontier(tree: BayesTree, query) -> Frontier:
    """An object-graph frontier over ``tree`` for ``query``."""
    return ObjectGraphTree(tree).frontier(query)


def reference_classify(
    classifier: AnytimeBayesClassifier, queries, max_nodes, record_history: bool = True
) -> List[AnytimeClassification]:
    """``classify_anytime_batch`` of ``classifier``, read through the object graph.

    Same checks and lockstep driver as the classifier's own method, over
    :class:`ObjectGraphTree` views of its class trees instead of their twins.
    """
    trees: Dict[Hashable, ObjectGraphTree] = {
        label: ObjectGraphTree(tree) for label, tree in classifier.trees.items()
    }
    return classify_forest(classifier, trees, queries, max_nodes, record_history)


def density_from_scratch(frontier: Frontier) -> float:
    """Recompute an object-graph frontier's density non-incrementally.

    Goes through the scalar linear-space ``pdq_scalar`` over the frontier's
    entries, an independent check of the incremental log-space engine.
    """
    tree = frontier.tree.tree
    bandwidth = tree.bandwidth
    return pdq_scalar(
        frontier.query,
        frontier.handles,
        total_objects=frontier.total_objects,
        variance_inflation=None if bandwidth is None else bandwidth ** 2,
        leaf_bandwidth=bandwidth,
        kernel=tree.config.kernel,
    )


def represented_objects(frontier: Frontier) -> float:
    """Observations an object-graph frontier represents (invariant under refinement)."""
    return float(sum(entry.n_objects for entry in frontier.handles))

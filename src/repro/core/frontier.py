"""Frontiers and probability density queries (paper Definitions 3 and §2.2).

A *frontier* is a set of entries such that every kernel estimator stored in
the tree is represented exactly once — either directly (a leaf entry in the
frontier) or through exactly one ancestor directory entry.  Every frontier
defines a Gaussian mixture model, and the probability density query

``pdq(x, E) = sum_{e in E} (n_e / n) * g(x, mu_e, sigma_e)``

evaluates that model at the query object (over an arbitrary set of a live
tree's entries: :func:`repro.core.bayes_tree.pdq`).

Refining the frontier replaces one directory entry by the entries of its child
node (one additional node read); the density is updated incrementally by
subtracting the refined entry's contribution and adding its children's — the
constant-time update the paper highlights at the end of §2.2.

A frontier never walks node objects.  It refines over a compiled
:class:`~repro.core.flat.FlatTree` (a live :class:`BayesTree` answers reads
through its cached twin, :meth:`BayesTree.flat_twin`), and its entries'
handles are the tree's pre-order slot ints.  The tree answers one query-side
operation, ``expand(slot)``: the slot range, levels and zero-copy column
slices of the packed component parameters ``(means, scales, kinds,
n_objects)`` of the entries below ``slot`` (``None`` is the root block).
Geometric descent asks the tree for ``min_distance(slot, query)``.

A frontier is its rows: four row buffers hold each entry's handle, level,
join order and cached log contribution.  Each refinement evaluates all
children of the read node with one batched ``log_gaussian_pdf`` call and
appends them as rows, and the mixture density is a log-sum-exp over the log
contribution column.  Linear-space densities underflow to exact zero in high
dimensions; the log-space path keeps them exact (see DESIGN.md, log-space
engine).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..stats.gaussian import log_gaussian_pdf_batch, safe_exp
from ..stats.kernel import log_epanechnikov_pdf_batch
from .descent import DescentStrategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flat import FlatTree

__all__ = [
    "Frontier",
    "component_log_densities",
]

#: Component kinds of packed parameters.  Gaussian rows keep the
#: per-dimension *variance* in the scale column, Epanechnikov rows keep the
#: kernel *bandwidth* (their density is not a Gaussian and is dispatched to
#: the batched Epanechnikov evaluator instead).
GAUSSIAN_KIND = 0
EPANECHNIKOV_KIND = 1

#: Packed ``(means, scales, kinds, n_objects)`` of one block of entries.
_BatchParams = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: What ``FlatTree.expand(slot)`` returns: the handles (slots), levels and
#: packed parameters of the entries below ``slot``.
_Expansion = Tuple[Sequence[int], Union[Sequence[int], np.ndarray], _BatchParams]


def component_log_densities(
    x: np.ndarray, means: np.ndarray, scales: np.ndarray, kinds: np.ndarray
) -> np.ndarray:
    """Unweighted log densities of mixed-kind components, batched.

    ``x`` is one query ``(d,)`` or a batch ``(m, d)``; the result has shape
    ``(n,)`` respectively ``(m, n)``.  Pure-Gaussian batches (the paper's
    default kernel) take a single vectorised call; mixed batches dispatch the
    Epanechnikov rows separately.
    """
    kinds = np.asarray(kinds)
    if not np.any(kinds == EPANECHNIKOV_KIND):
        return log_gaussian_pdf_batch(x, means, scales)
    gaussian_mask = kinds == GAUSSIAN_KIND
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    queries = x[None, :] if single else x
    out = np.empty((queries.shape[0], len(kinds)))
    if np.any(gaussian_mask):
        out[:, gaussian_mask] = log_gaussian_pdf_batch(
            queries, means[gaussian_mask], scales[gaussian_mask]
        )
    epanechnikov_mask = ~gaussian_mask
    out[:, epanechnikov_mask] = log_epanechnikov_pdf_batch(
        queries, means[epanechnikov_mask], scales[epanechnikov_mask]
    )
    return out[0] if single else out


class Frontier:
    """The evolving mixed-granularity model for one query object and one tree.

    The frontier starts with the entries of the root node (the coarsest
    complete model) and is refined one node at a time.  Each entry is a row:
    ``handles[row]`` (what the tree's ``expand`` and ``min_distance`` take),
    ``levels[row]`` (the level of the node the entry points to; -1 for a
    kernel), ``orders[row]`` (when the entry joined; breadth- and
    depth-first descent break ties by it) and ``log_contributions[row]``
    (the log of the entry's weighted density ``(n_e / n) * g(x, ...)`` for
    the query).  A node read removes the refined row by moving the last row
    into its place and appends the children's rows, so a refinement step
    costs O(fanout) vectorised density evaluations — the work of reading a
    single node.
    """

    def __init__(
        self,
        tree: "FlatTree",
        query: np.ndarray,
        root_log_densities: Optional[np.ndarray] = None,
    ) -> None:
        """``tree`` is the flat tree whose ``expand`` supplies the entries;
        ``root_log_densities`` optionally carries this query's precomputed
        unweighted log densities for the root block (one row of the batch
        driver's shared evaluation)."""
        self.tree = tree
        self.query = np.asarray(query, dtype=float)
        handles, levels, params = tree.expand(None)
        # Summed in list order: np.sum's pairwise order would move the last
        # bits of every mixture weight, and with them the pinned trace hashes.
        self.total_objects = float(sum(params[3].tolist()))
        self._log_total = math.log(self.total_objects) if self.total_objects > 0 else None
        self.nodes_read = 0
        capacity = max(32, 2 * len(handles))
        self.handles: List[int] = []
        self._levels = np.empty(capacity, dtype=np.int64)
        self._orders = np.empty(capacity, dtype=np.int64)
        self._log_contribs = np.empty(capacity)
        self._joined = 0
        self._refinable = 0
        self._append_rows(handles, levels, params, root_log_densities)
        self._log_density = self._sum_contributions()

    # -- rows ---------------------------------------------------------------------------
    def _append_rows(
        self,
        handles: Sequence[int],
        levels: "Sequence[int] | np.ndarray",
        params: _BatchParams,
        log_densities: Optional[np.ndarray] = None,
    ) -> None:
        """Append one expanded block, evaluating its densities in one call.

        ``log_densities`` may carry precomputed unweighted log densities for
        the block (the batch classification driver shares one evaluation
        across all queries that read the same node).
        """
        count = len(handles)
        if not count:
            return
        means, scales, kinds, n_objects = params
        if self._log_total is None:
            log_weights = np.full(count, -np.inf)
        else:
            with np.errstate(divide="ignore"):
                log_weights = np.log(n_objects) - self._log_total
        if log_densities is None:
            log_densities = component_log_densities(self.query, means, scales, kinds)
        else:
            log_densities = np.asarray(log_densities, dtype=float)
        start = len(self.handles)
        end = start + count
        if end > self._log_contribs.shape[0]:
            self._grow(end)
        self.handles.extend(handles)
        self._levels[start:end] = levels
        self._orders[start:end] = np.arange(self._joined, self._joined + count)
        self._log_contribs[start:end] = log_weights + log_densities
        self._joined += count
        self._refinable += int(np.count_nonzero(self._levels[start:end] >= 0))

    def _grow(self, needed: int) -> None:
        """Reallocate the numeric row buffers to hold at least ``needed`` rows."""
        size = len(self.handles)
        capacity = max(needed, 2 * self._log_contribs.shape[0])
        for name in ("_levels", "_orders", "_log_contribs"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[:size] = old[:size]
            setattr(self, name, grown)

    def _remove_row(self, row: int) -> None:
        """Remove refinable ``row`` by moving the last row into its place."""
        last = len(self.handles) - 1
        moved = self.handles.pop()
        if row != last:
            self.handles[row] = moved
            self._levels[row] = self._levels[last]
            self._orders[row] = self._orders[last]
            self._log_contribs[row] = self._log_contribs[last]
        self._refinable -= 1

    def _sum_contributions(self) -> float:
        """Log mixture density: log-sum-exp over the cached log contributions.

        Inlined log-sum-exp: this runs once per node read for every live
        frontier, so it avoids the generic :func:`logsumexp` wrapper (errstate
        context, keepdims bookkeeping) on arrays that are typically tiny.
        """
        contribs = self.log_contributions
        if contribs.size == 0:
            return -math.inf
        amax = contribs.max()
        if not np.isfinite(amax):
            # All -inf (query outside every support) stays -inf; +inf saturates.
            return float(amax)
        # This IS log-sum-exp, hand-inlined for the once-per-node-read hot
        # path; the exp is max-shifted so it cannot underflow the result.
        return float(np.log(np.exp(contribs - amax).sum()) + amax)  # reprolint: disable=RL001 -- inlined logsumexp

    # -- inspection --------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.handles)

    @property
    def levels(self) -> np.ndarray:
        """Level of the node each row's entry points to (-1 for kernels)."""
        return self._levels[: len(self.handles)]

    @property
    def orders(self) -> np.ndarray:
        """Join order of each row: a counter over every entry that joined."""
        return self._orders[: len(self.handles)]

    @property
    def log_contributions(self) -> np.ndarray:
        """Cached log weighted density of each row's entry for the query."""
        return self._log_contribs[: len(self.handles)]

    @property
    def log_density(self) -> float:
        """Current log probability density of the query under the frontier model."""
        return self._log_density

    @property
    def density(self) -> float:
        """Linear-space density (may underflow to 0.0; prefer :attr:`log_density`)."""
        return safe_exp(self._log_density)

    def refinable_rows(self) -> np.ndarray:
        """Rows whose entry still has an unread child node, in join order."""
        size = len(self.handles)
        rows = np.flatnonzero(self._levels[:size] >= 0)
        return rows[np.argsort(self._orders[rows])]

    def min_distance(self, row: int) -> float:
        """MINDIST from the query to the MBR of ``row``'s directory entry."""
        return self.tree.min_distance(self.handles[row], self.query)

    @property
    def is_fully_refined(self) -> bool:
        """True once every kernel estimator is represented individually."""
        return self._refinable == 0

    # -- refinement --------------------------------------------------------------------
    def refine(self, strategy: DescentStrategy) -> Optional[int]:
        """Read one more node, chosen by ``strategy``; returns the refined handle.

        Returns ``None`` when the frontier is already fully refined (the model
        equals the full kernel density estimate).
        """
        if self.is_fully_refined:
            return None
        return self.refine_item(strategy.choose(self))

    def refine_item(
        self,
        row: int,
        child_log_densities: Optional[np.ndarray] = None,
        children: Optional[_Expansion] = None,
    ) -> int:
        """Replace ``row``'s entry by the entries of its child node (paper §2.2).

        Returns the refined entry's handle.  The density is updated
        incrementally: ``p_{t+1}(x) = p_t(x) - contribution(e_s) + sum_children
        contribution``.  The children are evaluated with a single batched log
        density call; ``children`` / ``child_log_densities`` let the batch
        driver pass the group's one ``tree.expand(handle)`` and this query's
        row of the shared evaluation instead.  Summing the cached
        contributions via log-sum-exp keeps exactly the O(frontier) cost of
        the paper's update while avoiding both the catastrophic cancellation
        of the subtract-then-add form and linear-space underflow.
        """
        if not 0 <= row < len(self.handles):
            raise ValueError(f"row {row} is not a row of this frontier")
        if self._levels[row] < 0:
            raise ValueError("cannot refine a leaf (kernel) entry")
        handle = self.handles[row]
        if children is None:
            children = self.tree.expand(handle)
        handles, levels, params = children
        self._remove_row(row)
        self._append_rows(handles, levels, params, child_log_densities)
        self._log_density = self._sum_contributions()
        self.nodes_read += 1
        return handle

    def refine_fully(self, strategy: DescentStrategy, max_nodes: Optional[int] = None) -> int:
        """Refine until no directory entries remain (or ``max_nodes`` reads).

        ``max_nodes`` must be None or a non-negative integer: a negative
        count would read nothing and a float one would read its ceiling, so
        both are refused (``ValueError``), as the classifiers refuse them.
        """
        if max_nodes is not None:
            if isinstance(max_nodes, bool) or not isinstance(max_nodes, (int, np.integer)):
                raise ValueError("max_nodes must be an integer or None")
            if max_nodes < 0:
                raise ValueError("max_nodes must be non-negative")
        reads = 0
        while not self.is_fully_refined:
            if max_nodes is not None and reads >= max_nodes:
                break
            if self.refine(strategy) is None:
                break
            reads += 1
        return reads

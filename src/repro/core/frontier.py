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
through its cached twin, :meth:`BayesTree.flat_twin`), and its items hold the
tree's pre-order slot ints.  The tree answers one query-side operation,
``expand(slot)``: the slot range, levels and zero-copy column slices of the
packed component parameters ``(means, scales, kinds, n_objects)`` of the
entries below ``slot`` (``None`` is the root block).  Geometric descent asks
the tree for ``min_distance(slot, query)``.

The implementation keeps the entire query side in **log space** and evaluates
whole entry batches at once: every frontier owns a :class:`FrontierArrays`
buffer packing the entries' means, variances and mixture weights into
contiguous numpy arrays, each refinement evaluates all children of the read
node with one batched ``log_gaussian_pdf`` call, and the mixture density is a
log-sum-exp over the cached per-entry log contributions.  Linear-space
densities underflow to exact zero in high dimensions; the log-space path keeps
them exact (see DESIGN.md, log-space engine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..stats.gaussian import log_gaussian_pdf_batch, safe_exp
from ..stats.kernel import log_epanechnikov_pdf_batch
from .descent import DescentStrategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flat import FlatTree

__all__ = [
    "FrontierItem",
    "Frontier",
    "FrontierArrays",
    "component_log_densities",
]

#: Component kinds stored in :class:`FrontierArrays`.  Gaussian rows keep the
#: per-dimension *variance* in the scale column, Epanechnikov rows keep the
#: kernel *bandwidth* (their density is not a Gaussian and is dispatched to
#: the batched Epanechnikov evaluator instead).
GAUSSIAN_KIND = 0
EPANECHNIKOV_KIND = 1

#: Packed ``(means, scales, kinds, n_objects)`` of one block of entries.
_BatchParams = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: What ``FlatTree.expand(slot)`` returns: the slots, levels and packed
#: parameters of the entries below ``slot``.
_Expansion = Tuple[range, List[int], _BatchParams]


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


class FrontierArrays:
    """Contiguous structure-of-arrays buffer behind a :class:`Frontier`.

    Holds one row per frontier entry — mean, scale (variance or bandwidth),
    kind, log mixture weight and cached log contribution — in amortised-growth
    numpy arrays.  Rows are appended in batches (one batch per node read) and
    removed in O(1) by swapping with the last row, so the buffer stays packed
    across arbitrarily many refinements and every whole-frontier reduction
    (log-sum-exp density, descent argmax) is a single vectorised operation.
    """

    __slots__ = ("dimension", "size", "_means", "_scales", "_kinds", "_log_weights", "_log_contribs")

    def __init__(self, dimension: int, capacity: int = 32) -> None:
        capacity = max(1, int(capacity))
        self.dimension = dimension
        self.size = 0
        self._means = np.empty((capacity, dimension))
        self._scales = np.empty((capacity, dimension))
        self._kinds = np.empty(capacity, dtype=np.int8)
        self._log_weights = np.empty(capacity)
        self._log_contribs = np.empty(capacity)

    # -- views ------------------------------------------------------------------------
    @property
    def means(self) -> np.ndarray:
        return self._means[: self.size]

    @property
    def scales(self) -> np.ndarray:
        return self._scales[: self.size]

    @property
    def kinds(self) -> np.ndarray:
        return self._kinds[: self.size]

    @property
    def log_weights(self) -> np.ndarray:
        return self._log_weights[: self.size]

    @property
    def log_contributions(self) -> np.ndarray:
        return self._log_contribs[: self.size]

    # -- mutation ---------------------------------------------------------------------
    def _ensure_capacity(self, extra: int) -> None:
        needed = self.size + extra
        capacity = self._log_contribs.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, 2 * capacity)
        for name in ("_means", "_scales"):
            old = getattr(self, name)
            grown = np.empty((new_capacity, self.dimension), dtype=old.dtype)
            grown[: self.size] = old[: self.size]
            setattr(self, name, grown)
        for name in ("_kinds", "_log_weights", "_log_contribs"):
            old = getattr(self, name)
            grown = np.empty(new_capacity, dtype=old.dtype)
            grown[: self.size] = old[: self.size]
            setattr(self, name, grown)

    def append_batch(
        self,
        means: np.ndarray,
        scales: np.ndarray,
        kinds: np.ndarray,
        log_weights: np.ndarray,
        log_densities: np.ndarray,
    ) -> int:
        """Append rows for one batch of entries; returns the first new slot."""
        count = len(log_weights)
        self._ensure_capacity(count)
        start = self.size
        self._means[start : start + count] = means
        self._scales[start : start + count] = scales
        self._kinds[start : start + count] = kinds
        self._log_weights[start : start + count] = log_weights
        self._log_contribs[start : start + count] = log_weights + log_densities
        self.size += count
        return start

    def swap_remove(self, slot: int) -> Optional[int]:
        """Remove row ``slot`` by swapping the last row into its place.

        Returns the previous index of the row that moved into ``slot`` (so the
        owner can update its bookkeeping), or ``None`` when the removed row was
        already the last one.
        """
        last = self.size - 1
        if not (0 <= slot <= last):
            raise IndexError(f"slot {slot} out of range for size {self.size}")
        moved: Optional[int] = None
        if slot != last:
            self._means[slot] = self._means[last]
            self._scales[slot] = self._scales[last]
            self._kinds[slot] = self._kinds[last]
            self._log_weights[slot] = self._log_weights[last]
            self._log_contribs[slot] = self._log_contribs[last]
            moved = last
        self.size = last
        return moved

    # -- reductions --------------------------------------------------------------------
    def log_density(self) -> float:
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


@dataclass(slots=True)
class FrontierItem:
    """One frontier entry together with its cached density contribution.

    Attributes
    ----------
    entry:
        The entry's pre-order slot in the frontier's flat tree, as
        :meth:`FlatTree.expand` returned it.
    level:
        Level of the node the entry points to (leaf entries have level -1,
        directory entries the level of their child node).
    order:
        Monotonically increasing counter recording when the item joined the
        frontier; breadth-first and depth-first descent use it for tie
        breaking.
    log_contribution:
        Cached log of the weighted density ``(n_e / n) * g(x, ...)`` of the
        entry for the frontier's query object; the canonical quantity on the
        log-space query path (never underflows).
    slot:
        Row index of the entry inside the frontier's :class:`FrontierArrays`.
    """

    entry: int
    level: int
    order: int
    log_contribution: float
    slot: int = -1

    @property
    def contribution(self) -> float:
        """Linear-space contribution (may underflow to 0.0 in high dimensions)."""
        return safe_exp(self.log_contribution)

    @property
    def is_refinable(self) -> bool:
        """Directory entries can be replaced by their children; kernels cannot."""
        return self.level >= 0


class Frontier:
    """The evolving mixed-granularity model for one query object and one tree.

    The frontier starts with the entries of the root node (the coarsest
    complete model) and is refined one node at a time.  All density values are
    maintained incrementally in log space: each node read evaluates the read
    node's children with one batched call against the query and the mixture
    density is a log-sum-exp over the packed per-entry log contributions, so a
    refinement step costs O(fanout) vectorised density evaluations — the work
    of reading a single node.
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
        self._counter = 0
        self._items: List[FrontierItem] = []
        self._slot_items: List[FrontierItem] = []
        self.nodes_read = 0
        self.arrays = FrontierArrays(
            dimension=self.query.shape[0], capacity=max(32, 2 * len(handles))
        )
        self._append_entries(handles, levels, params, root_log_densities)
        self._log_density = self.arrays.log_density()

    # -- construction helpers ---------------------------------------------------------
    def _append_entries(
        self,
        handles: range,
        levels: Sequence[int],
        params: _BatchParams,
        log_densities: Optional[np.ndarray] = None,
    ) -> None:
        """Append one expanded block, evaluating its densities in one call.

        ``log_densities`` may carry precomputed unweighted log densities for
        the block (the batch classification driver shares one evaluation
        across all queries that read the same node).
        """
        if not handles:
            return
        means, scales, kinds, n_objects = params
        if self._log_total is None:
            log_weights = np.full(len(handles), -np.inf)
        else:
            with np.errstate(divide="ignore"):
                log_weights = np.log(n_objects) - self._log_total
        if log_densities is None:
            log_densities = component_log_densities(self.query, means, scales, kinds)
        else:
            log_densities = np.asarray(log_densities, dtype=float)
        start = self.arrays.append_batch(means, scales, kinds, log_weights, log_densities)
        # One C-level conversion of the new contributions; per-element float()
        # in the loop below dominated the refinement hot path.
        contribs = self.arrays.log_contributions[start:].tolist()
        counter = self._counter
        items_append = self._items.append
        slots_append = self._slot_items.append
        for i, (handle, level) in enumerate(zip(handles, levels)):
            item = FrontierItem(handle, level, counter, contribs[i], start + i)
            counter += 1
            items_append(item)
            slots_append(item)
        self._counter = counter

    def _remove_item(self, item: FrontierItem) -> None:
        self._items.remove(item)
        moved_from = self.arrays.swap_remove(item.slot)
        last_item = self._slot_items.pop()
        if moved_from is not None:
            self._slot_items[item.slot] = last_item
            last_item.slot = item.slot

    # -- inspection --------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[FrontierItem]:
        return iter(self._items)

    @property
    def items(self) -> List[FrontierItem]:
        return list(self._items)

    @property
    def log_density(self) -> float:
        """Current log probability density of the query under the frontier model."""
        return self._log_density

    @property
    def density(self) -> float:
        """Linear-space density (may underflow to 0.0; prefer :attr:`log_density`)."""
        return safe_exp(self._log_density)

    def refinable_items(self) -> List[FrontierItem]:
        """Frontier items that still have an unread child node."""
        return [item for item in self._items if item.is_refinable]

    @property
    def is_fully_refined(self) -> bool:
        """True once every kernel estimator is represented individually."""
        return not any(item.is_refinable for item in self._items)

    # -- refinement --------------------------------------------------------------------
    def refine(self, strategy: DescentStrategy) -> Optional[FrontierItem]:
        """Read one more node, chosen by ``strategy``; returns the refined item.

        Returns ``None`` when the frontier is already fully refined (the model
        equals the full kernel density estimate).
        """
        candidates = self.refinable_items()
        if not candidates:
            return None
        item = strategy.choose(candidates, self.query, self.tree)
        return self.refine_item(item)

    def refine_item(
        self,
        item: FrontierItem,
        child_log_densities: Optional[np.ndarray] = None,
        children: Optional[_Expansion] = None,
    ) -> FrontierItem:
        """Replace ``item`` by the entries of its child node (paper §2.2).

        The density is updated incrementally:
        ``p_{t+1}(x) = p_t(x) - contribution(e_s) + sum_children contribution``.
        The children are evaluated with a single batched log density call;
        ``children`` / ``child_log_densities`` let the batch driver pass the
        group's one ``tree.expand(item.entry)`` and this query's row of the
        shared evaluation instead.  Summing the cached contributions via
        log-sum-exp keeps exactly the O(frontier) cost of the paper's update
        while avoiding both the catastrophic cancellation of the
        subtract-then-add form and linear-space underflow.
        """
        if not item.is_refinable:
            raise ValueError("cannot refine a leaf (kernel) entry")
        if item not in self._items:
            raise ValueError("item is not part of this frontier")
        if children is None:
            children = self.tree.expand(item.entry)
        handles, levels, params = children
        self._remove_item(item)
        self._append_entries(handles, levels, params, child_log_densities)
        self._log_density = self.arrays.log_density()
        self.nodes_read += 1
        return item

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

"""Descent strategies for the anytime refinement of a Bayes tree frontier.

Paper §2.2: "For tree traversal we evaluated three basic descent strategies:
breadth first (bft), depth first (dft) and global best descent (glo), which
orders nodes globally with respect to a priority measure ... For the priority
measure we tested a geometric measure, i.e. the distance from the query object
to the MBR, and a probabilistic measure, i.e. the weighted probability density
for the query object w.r.t. the Gaussian component of each entry."

A strategy looks at the *refinable* frontier items (those whose entry is a
directory entry, i.e. has a child node that could be read next) and picks the
one to expand in the next time step.  The items' entries are slots of the
frontier's flat tree, so the geometric measure asks the tree for
``tree.min_distance(item.entry, query)``, the MINDIST to that slot's MBR.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence, TYPE_CHECKING

import numpy as np

__all__ = [
    "DescentStrategy",
    "BreadthFirstDescent",
    "DepthFirstDescent",
    "GlobalBestDescent",
    "make_descent_strategy",
    "DESCENT_STRATEGIES",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flat import FlatTree
    from .frontier import FrontierItem


class DescentStrategy(ABC):
    """Picks which frontier entry to refine next for a given query."""

    name: str = "abstract"

    @abstractmethod
    def choose(
        self, candidates: Sequence["FrontierItem"], query: np.ndarray, tree: "FlatTree"
    ) -> "FrontierItem":
        """Return the frontier item to refine next.

        ``candidates`` is never empty and contains only refinable items of a
        frontier over ``tree``.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class BreadthFirstDescent(DescentStrategy):
    """Refine the tree level by level (bft in the paper).

    Among the refinable frontier entries the one closest to the root is
    expanded first; ties are broken by insertion order, which makes the
    traversal exactly breadth first.
    """

    name = "bft"

    def choose(
        self, candidates: Sequence["FrontierItem"], query: np.ndarray, tree: "FlatTree"
    ) -> "FrontierItem":
        return min(candidates, key=lambda item: (-item.level, item.order))


class DepthFirstDescent(DescentStrategy):
    """Refine the most recently produced entry first (dft in the paper).

    This follows a single path towards the leaves before backtracking, i.e. a
    classic depth-first traversal driven by the frontier.
    """

    name = "dft"

    def choose(
        self, candidates: Sequence["FrontierItem"], query: np.ndarray, tree: "FlatTree"
    ) -> "FrontierItem":
        return max(candidates, key=lambda item: item.order)


class GlobalBestDescent(DescentStrategy):
    """Order refinable entries globally by a priority measure (glo in the paper).

    ``measure="probabilistic"`` expands the entry with the largest *weighted
    probability density* for the query (the paper's best-performing measure);
    ``measure="geometric"`` expands the entry whose MBR is closest to the
    query object.
    """

    def __init__(self, measure: str = "probabilistic") -> None:
        if measure not in ("probabilistic", "geometric"):
            raise ValueError("measure must be 'probabilistic' or 'geometric'")
        self.measure = measure
        self.name = "glo" if measure == "probabilistic" else "glo-geometric"

    def choose(
        self, candidates: Sequence["FrontierItem"], query: np.ndarray, tree: "FlatTree"
    ) -> "FrontierItem":
        if self.measure == "probabilistic":
            # Highest weighted density first: the entry currently contributing
            # the most to the query's density is the most promising to refine.
            # Ranking happens on the log contributions — linear-space densities
            # all underflow to 0.0 in high dimensions, which used to collapse
            # this choice into an arbitrary first-candidate pick.
            scores = np.fromiter(
                (item.log_contribution for item in candidates),
                dtype=float,
                count=len(candidates),
            )
            return candidates[int(np.argmax(scores))]
        distances = np.fromiter(
            (tree.min_distance(item.entry, query) for item in candidates),
            dtype=float,
            count=len(candidates),
        )
        return candidates[int(np.argmin(distances))]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GlobalBestDescent(measure={self.measure!r})"


DESCENT_STRATEGIES = ("bft", "dft", "glo", "glo-geometric")


def make_descent_strategy(name: str) -> DescentStrategy:
    """Factory mapping the paper's strategy names to strategy objects."""
    if name == "bft":
        return BreadthFirstDescent()
    if name == "dft":
        return DepthFirstDescent()
    if name == "glo":
        return GlobalBestDescent(measure="probabilistic")
    if name == "glo-geometric":
        return GlobalBestDescent(measure="geometric")
    raise ValueError(f"unknown descent strategy {name!r}; expected one of {DESCENT_STRATEGIES}")

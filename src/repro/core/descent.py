"""Descent strategies for the anytime refinement of a Bayes tree frontier.

Paper §2.2: "For tree traversal we evaluated three basic descent strategies:
breadth first (bft), depth first (dft) and global best descent (glo), which
orders nodes globally with respect to a priority measure ... For the priority
measure we tested a geometric measure, i.e. the distance from the query object
to the MBR, and a probabilistic measure, i.e. the weighted probability density
for the query object w.r.t. the Gaussian component of each entry."

A strategy looks at the *refinable* rows of a frontier (those whose entry is
a directory entry, i.e. has a child node that could be read next), takes
them in the order their entries joined the frontier, and returns the row to
expand in the next time step.  The geometric measure asks the frontier for
``min_distance(row)``, the MINDIST from the query to that row's MBR.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol

import numpy as np

__all__ = [
    "DescentStrategy",
    "BreadthFirstDescent",
    "DepthFirstDescent",
    "FrontierRows",
    "GlobalBestDescent",
    "make_descent_strategy",
    "DESCENT_STRATEGIES",
]


class FrontierRows(Protocol):
    """What a strategy reads of a frontier: its rows.

    :class:`~repro.core.frontier.Frontier` is one; the §4.1 single-tree
    classifier passes a view over its own item list.
    """

    @property
    def levels(self) -> np.ndarray:
        """Level of the node each row's entry points to (-1 for kernels)."""

    @property
    def log_contributions(self) -> np.ndarray:
        """Log weighted density of each row's entry for the query."""

    def refinable_rows(self) -> np.ndarray:
        """Rows whose entry has an unread child node, in join order."""

    def min_distance(self, row: int) -> float:
        """MINDIST from the query to the MBR of ``row``'s directory entry."""


class DescentStrategy(ABC):
    """Picks which frontier row to refine next for a given query."""

    name: str = "abstract"

    @abstractmethod
    def choose(self, frontier: FrontierRows) -> int:
        """Return the row of ``frontier`` to refine next.

        ``frontier`` has at least one refinable row.  Every strategy reduces
        over ``frontier.refinable_rows()`` in join order and keeps the first
        row the reduction picks, so ties go to the entry that joined first.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class BreadthFirstDescent(DescentStrategy):
    """Refine the tree level by level (bft in the paper).

    Among the refinable frontier entries the one closest to the root is
    expanded first; ties are broken by join order, which makes the
    traversal exactly breadth first.
    """

    name = "bft"

    def choose(self, frontier: FrontierRows) -> int:
        rows = frontier.refinable_rows()
        return int(rows[np.argmax(frontier.levels[rows])])


class DepthFirstDescent(DescentStrategy):
    """Refine the most recently produced entry first (dft in the paper).

    This follows a single path towards the leaves before backtracking, i.e. a
    classic depth-first traversal driven by the frontier.
    """

    name = "dft"

    def choose(self, frontier: FrontierRows) -> int:
        return int(frontier.refinable_rows()[-1])


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

    def choose(self, frontier: FrontierRows) -> int:
        rows = frontier.refinable_rows()
        if self.measure == "probabilistic":
            # Highest weighted density first: the entry currently contributing
            # the most to the query's density is the most promising to refine.
            # Ranking happens on the log contributions — linear-space densities
            # all underflow to 0.0 in high dimensions, which used to collapse
            # this choice into an arbitrary first-candidate pick.
            return int(rows[np.argmax(frontier.log_contributions[rows])])
        distances = np.fromiter(
            (frontier.min_distance(row) for row in rows.tolist()),
            dtype=float,
            count=len(rows),
        )
        return int(rows[np.argmin(distances)])

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

"""Minimum bounding rectangles (MBRs).

Every Bayes tree node entry stores "the minimum bounding rectangle enclosing
the objects stored in the subtree" (paper Def. 1), exactly as in R-trees
(Guttman, SIGMOD 1984) and the R*-tree.  The geometric quantities defined here
(area, margin, enlargement, overlap, point distance) are the ones the R*
insertion and split heuristics need, and the geometric descent priority of the
Bayes tree ("distance from the query object to the MBR", paper §2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["MBR"]


@dataclass(slots=True)
class MBR:
    """Axis-aligned minimum bounding rectangle in d dimensions."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-d vectors of equal length")
        if (lower > upper).any():
            raise ValueError("lower bound must not exceed upper bound in any dimension")
        self.lower = lower
        self.upper = upper

    # -- constructors ---------------------------------------------------------------
    @staticmethod
    def _trusted(lower: np.ndarray, upper: np.ndarray) -> "MBR":
        """Construct without validation from float arrays known to be a valid box.

        The R*-tree insertion and split machinery builds thousands of boxes per
        insert from unions/intersections whose invariants hold by construction;
        this bypasses the dataclass validation on that hot path.  Callers own
        the arrays (they must not alias mutable state).
        """
        mbr = object.__new__(MBR)
        mbr.lower = lower
        mbr.upper = upper
        return mbr

    @staticmethod
    def from_point(point: Sequence[float] | np.ndarray) -> "MBR":
        """Degenerate MBR covering a single point."""
        point = np.asarray(point, dtype=float)
        return MBR._trusted(point.copy(), point.copy())

    @staticmethod
    def from_points(points: np.ndarray) -> "MBR":
        """Smallest MBR covering all rows of ``points``."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        return MBR._trusted(points.min(axis=0), points.max(axis=0))

    @staticmethod
    def union_of(rectangles: Iterable["MBR"]) -> "MBR":
        """Smallest MBR covering all given rectangles."""
        rectangles = list(rectangles)
        if not rectangles:
            raise ValueError("cannot take the union of zero rectangles")
        lower = np.min([r.lower for r in rectangles], axis=0)
        upper = np.max([r.upper for r in rectangles], axis=0)
        return MBR._trusted(lower, upper)

    # -- basic geometry ---------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @property
    def center(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0

    @property
    def extents(self) -> np.ndarray:
        """Per-dimension side lengths."""
        return self.upper - self.lower

    def area(self) -> float:
        """Volume of the rectangle (product of side lengths)."""
        return float((self.upper - self.lower).prod())

    def margin(self) -> float:
        """Sum of side lengths (the R* 'margin' criterion)."""
        return float((self.upper - self.lower).sum())

    def copy(self) -> "MBR":
        return MBR._trusted(self.lower.copy(), self.upper.copy())

    # -- relations -------------------------------------------------------------------
    def union(self, other: "MBR") -> "MBR":
        """Smallest MBR covering both rectangles."""
        return MBR._trusted(
            np.minimum(self.lower, other.lower), np.maximum(self.upper, other.upper)
        )

    def enlargement(self, other: "MBR") -> float:
        """Area increase needed to include ``other`` (R-tree insertion criterion)."""
        return self.union(other).area() - self.area()

    def intersection_area(self, other: "MBR") -> float:
        """Area of the overlap region with ``other`` (zero if disjoint)."""
        sides = np.minimum(self.upper, other.upper) - np.maximum(self.lower, other.lower)
        if (sides <= 0).any():
            return 0.0
        return float(sides.prod())

    def contains_point(self, point: Sequence[float] | np.ndarray) -> bool:
        point = np.asarray(point, dtype=float)
        return bool(np.all(point >= self.lower) and np.all(point <= self.upper))

    def contains(self, other: "MBR") -> bool:
        return bool(np.all(other.lower >= self.lower) and np.all(other.upper <= self.upper))

    def include_point(self, point: Sequence[float] | np.ndarray) -> "MBR":
        """Smallest MBR covering this rectangle and ``point``."""
        point = np.asarray(point, dtype=float)
        return MBR._trusted(np.minimum(self.lower, point), np.maximum(self.upper, point))

    # -- distances -------------------------------------------------------------------
    def min_distance(self, point: Sequence[float] | np.ndarray) -> float:
        """Euclidean MINDIST from ``point`` to the rectangle (0 if inside).

        This is the geometric priority measure the paper evaluates for the
        global-best descent strategy.
        """
        point = np.asarray(point, dtype=float)
        below = np.maximum(self.lower - point, 0.0)
        above = np.maximum(point - self.upper, 0.0)
        gaps = np.maximum(below, above)
        return float(np.sqrt((gaps * gaps).sum()))

    def center_distance(self, point: Sequence[float] | np.ndarray) -> float:
        """Euclidean distance from ``point`` to the rectangle center."""
        point = np.asarray(point, dtype=float)
        return float(np.linalg.norm(self.center - point))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return bool(np.array_equal(self.lower, other.lower) and np.array_equal(self.upper, other.upper))

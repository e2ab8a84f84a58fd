"""Cluster features (CF = (n, LS, SS)).

Paper Definition 1 stores for every node entry "the cluster feature
CF = (n_s, LS, SS) of the objects in T_s containing the number n_s of objects,
their linear sum LS and their squared sum SS".  From a CF the entry's Gaussian
is recovered as ``mu = LS / n`` and ``sigma^2 = SS / n - (LS / n)^2``.

Cluster features are additive (the CF of a union is the sum of the CFs), which
is what makes bottom-up directory construction and incremental insertion
cheap, and — as the future-work section points out — what enables the
anytime-clustering extension (temporal decay just scales the three summaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..stats.gaussian import Gaussian

__all__ = ["ClusterFeature"]


@dataclass(eq=False, slots=True)
class ClusterFeature:
    """Additive sufficient statistics (n, LS, SS) of a set of vectors."""

    n: float
    linear_sum: np.ndarray
    squared_sum: np.ndarray

    def __post_init__(self) -> None:
        linear_sum = np.asarray(self.linear_sum, dtype=float)
        squared_sum = np.asarray(self.squared_sum, dtype=float)
        if linear_sum.ndim != 1 or linear_sum.shape != squared_sum.shape:
            raise ValueError("linear_sum and squared_sum must be 1-d vectors of equal length")
        if self.n < 0:
            raise ValueError("n must be non-negative")
        self.linear_sum = linear_sum
        self.squared_sum = squared_sum
        self.n = float(self.n)

    # -- constructors ---------------------------------------------------------------
    @staticmethod
    def zero(dimension: int) -> "ClusterFeature":
        """Empty cluster feature of the given dimensionality."""
        return ClusterFeature(n=0.0, linear_sum=np.zeros(dimension), squared_sum=np.zeros(dimension))

    @staticmethod
    def from_point(point: Sequence[float] | np.ndarray, weight: float = 1.0) -> "ClusterFeature":
        """CF of a single (optionally weighted) point."""
        point = np.asarray(point, dtype=float)
        return ClusterFeature(n=weight, linear_sum=weight * point, squared_sum=weight * point * point)

    @staticmethod
    def from_points(points: np.ndarray) -> "ClusterFeature":
        """CF of a set of points (rows)."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        return ClusterFeature(
            n=float(points.shape[0]),
            linear_sum=points.sum(axis=0),
            squared_sum=(points * points).sum(axis=0),
        )

    @staticmethod
    def from_weighted_points(points: np.ndarray, weights: np.ndarray) -> "ClusterFeature":
        """CF of weighted points: ``(sum w, sum w*x, sum w*x^2)``.

        The decayed view of a set of observations is exactly this with
        ``w_i = 2 ** (-decay_rate * age_i)``; shared by the index nodes and
        the Bayes tree's running-statistics rebuild so the two can never
        drift apart.
        """
        points = np.asarray(points, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        if weights.shape != (points.shape[0],):
            raise ValueError("weights must be a vector with one weight per point")
        return ClusterFeature(
            n=float(weights.sum()),
            linear_sum=(weights[:, None] * points).sum(axis=0),
            squared_sum=(weights[:, None] * points * points).sum(axis=0),
        )

    @staticmethod
    def sum_of(features: Iterable["ClusterFeature"]) -> "ClusterFeature":
        """Additive combination of several cluster features."""
        features = list(features)
        if not features:
            raise ValueError("cannot sum zero cluster features")
        total = features[0].copy()
        for feature in features[1:]:
            total = total + feature
        return total

    # -- algebra ----------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return self.linear_sum.shape[0]

    def copy(self) -> "ClusterFeature":
        return ClusterFeature(n=self.n, linear_sum=self.linear_sum.copy(), squared_sum=self.squared_sum.copy())

    def __add__(self, other: "ClusterFeature") -> "ClusterFeature":
        if self.dimension != other.dimension:
            raise ValueError("cluster features must have the same dimension")
        return ClusterFeature(
            n=self.n + other.n,
            linear_sum=self.linear_sum + other.linear_sum,
            squared_sum=self.squared_sum + other.squared_sum,
        )

    def add_point(self, point: Sequence[float] | np.ndarray, weight: float = 1.0) -> None:
        """In-place insertion of a point (used on the insertion path)."""
        point = np.asarray(point, dtype=float)
        self.n += weight
        self.linear_sum = self.linear_sum + weight * point
        self.squared_sum = self.squared_sum + weight * point * point

    def add_feature(self, other: "ClusterFeature") -> None:
        """In-place additive merge of ``other`` (the R* insertion-path update).

        Unlike ``__add__`` this mutates the receiver without allocating a new
        feature; ``other`` is only read.
        """
        if self.dimension != other.dimension:
            raise ValueError("cluster features must have the same dimension")
        self.n += other.n
        self.linear_sum += other.linear_sum
        self.squared_sum += other.squared_sum

    def scaled(self, factor: float) -> "ClusterFeature":
        """Return a copy with all three summaries multiplied by ``factor``.

        Exponential temporal decay of the anytime-clustering extension is
        exactly this operation (paper §4.2, "decrease the influence of older
        data ... by an exponential decay function").
        """
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return ClusterFeature(
            n=self.n * factor,
            linear_sum=self.linear_sum * factor,
            squared_sum=self.squared_sum * factor,
        )

    def scale_in_place(self, factor: float) -> None:
        """Multiply all three summaries by ``factor`` without allocating.

        The decayed ``(n, LS, SS)`` view of an aged entry is exactly the
        stored feature scaled by ``2 ** (-decay_rate * elapsed)``; because the
        same factor hits every summary, the mean and variance are preserved
        and only the weight shrinks.  Used on the R* insertion and sync paths,
        which age directory summaries in place before touching them.
        """
        if factor < 0:
            raise ValueError("factor must be non-negative")
        if factor == 1.0:
            return
        self.n *= factor
        self.linear_sum *= factor
        self.squared_sum *= factor

    # -- derived statistics --------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return self.n <= 0

    def mean(self) -> np.ndarray:
        """``LS / n``."""
        if self.is_empty:
            raise ValueError("empty cluster feature has no mean")
        return self.linear_sum / self.n

    def variance(self) -> np.ndarray:
        """``SS / n - (LS / n)^2`` clamped to be non-negative."""
        if self.is_empty:
            raise ValueError("empty cluster feature has no variance")
        mean = self.mean()
        return np.maximum(self.squared_sum / self.n - mean * mean, 0.0)

    def radius(self) -> float:
        """Root-mean-square deviation from the centroid (BIRCH-style radius)."""
        return float(np.sqrt(np.sum(self.variance())))

    def to_gaussian(self, weight: float | None = None) -> Gaussian:
        """Gaussian with the CF's mean and variance.

        ``weight`` defaults to ``n``; frontiers re-normalise by the total
        number of represented objects (paper Def. 3).
        """
        return Gaussian(mean=self.mean(), variance=self.variance(), weight=self.n if weight is None else weight)

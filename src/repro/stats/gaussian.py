"""Multivariate Gaussian densities with diagonal covariance.

The Bayes tree (Kranen, VLDB 2009) represents every node entry by the mean
and per-dimension variance of the objects in its subtree, i.e. a diagonal
(axis-aligned) multivariate normal distribution.  This module provides that
density, both as a light-weight value object (:class:`Gaussian`) and as
vectorised free functions used in inner loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "Gaussian",
    "gaussian_pdf",
    "log_gaussian_pdf",
    "log_gaussian_pdf_batch",
    "log_gaussian_pdf_normalised",
    "logsumexp",
    "probabilities_from_log",
    "safe_exp",
    "shared_gaussian_normaliser",
    "MIN_VARIANCE",
]


def safe_exp(value: float) -> float:
    """``math.exp`` saturating to 0.0 / inf instead of raising.

    Linear-space views of log densities can legitimately exceed the float
    range in both directions (tiny bandwidths push log densities above ~709);
    ``math.exp`` raises ``OverflowError`` there, which would turn a valid
    query into a crash.
    """
    if value == -math.inf:
        return 0.0
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf

#: Variances below this value are clamped before evaluating a density.  The
#: paper's kernels at leaf level have a data driven bandwidth; in degenerate
#: synthetic cases (duplicate points, constant features) the empirical
#: variance can collapse to zero, which would make the density undefined.
MIN_VARIANCE = 1e-9


def _as_vector(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {array.shape}")
    return array


def log_gaussian_pdf(x: np.ndarray, mean: np.ndarray, variance: np.ndarray) -> float:
    """Log density of a diagonal-covariance Gaussian at ``x``.

    Parameters
    ----------
    x, mean, variance:
        Vectors of identical dimensionality.  ``variance`` holds the
        per-dimension variances (the diagonal of the covariance matrix).
    """
    variance = np.maximum(variance, MIN_VARIANCE)
    diff = x - mean
    return float(
        -0.5 * np.sum(np.log(2.0 * math.pi * variance))
        - 0.5 * np.sum(diff * diff / variance)
    )


def gaussian_pdf(x: np.ndarray, mean: np.ndarray, variance: np.ndarray) -> float:
    """Density of a diagonal-covariance Gaussian at ``x``."""
    return math.exp(log_gaussian_pdf(np.asarray(x, float), np.asarray(mean, float), np.asarray(variance, float)))


#: Chunk size (in scalars of the broadcast ``(m, n, d)`` temporary) used by the
#: batched log density; keeps peak memory of large query batches bounded while
#: still amortising the numpy dispatch overhead.
_BATCH_CHUNK_SCALARS = 4_000_000


def log_gaussian_pdf_batch(
    x: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """Log densities of many diagonal Gaussians, optionally at many queries.

    Parameters
    ----------
    x:
        Either one query vector of shape ``(d,)`` or a batch of queries of
        shape ``(m, d)``.
    means, variances:
        Component parameters of shape ``(n, d)`` — one row per Gaussian.

    Returns
    -------
    np.ndarray
        Shape ``(n,)`` for a single query, ``(m, n)`` for a query batch, with
        ``out[i, j] = log N(x_i; means[j], diag(variances[j]))``.

    The per-component terms are computed with the same ``(x - mu)^2 / var``
    formula as :func:`log_gaussian_pdf`, so a batched evaluation agrees with
    the scalar one to floating-point round-off.
    """
    x = np.asarray(x, dtype=float)
    means = np.asarray(means, dtype=float)
    variances = np.maximum(np.asarray(variances, dtype=float), MIN_VARIANCE)
    if means.ndim != 2 or means.shape != variances.shape:
        raise ValueError("means and variances must be matching (n, d) arrays")
    single = x.ndim == 1
    queries = x[None, :] if single else x
    if queries.ndim != 2 or queries.shape[1] != means.shape[1]:
        raise ValueError(
            f"queries must have shape (m, {means.shape[1]}), got {x.shape}"
        )
    # Normalisation term is query independent: -0.5 * sum(log(2 pi var)).
    norm = -0.5 * np.sum(np.log(2.0 * math.pi * variances), axis=1)
    out = log_gaussian_pdf_normalised(queries, means, variances, norm)
    return out[0] if single else out


def shared_gaussian_normaliser(variance: np.ndarray) -> Tuple[np.ndarray, float]:
    """``(floored variance, normaliser)`` of Gaussians that share one variance.

    The query-independent half of :func:`log_gaussian_pdf_batch` for one
    ``(d,)`` variance vector: the variance clamped at :data:`MIN_VARIANCE`
    and ``-0.5 * sum(log(2 pi var))``, each the value that function computes
    for every component row with this variance.  Feed both to
    :func:`log_gaussian_pdf_normalised`.
    """
    floored = np.maximum(np.asarray(variance, dtype=float), MIN_VARIANCE)
    return floored, float(-0.5 * np.sum(np.log(2.0 * math.pi * floored)))


def log_gaussian_pdf_normalised(
    queries: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    normaliser: "np.ndarray | float",
) -> np.ndarray:
    """``normaliser - 0.5 * sum((x - mu)^2 / var)`` for ``(m, d)`` queries, chunked.

    Log densities ``(m, n)`` of diagonal Gaussians whose query-independent
    half is already computed: ``variances`` is ``(n, d)`` or one shared
    ``(d,)`` row, floored at :data:`MIN_VARIANCE`, and ``normaliser`` the
    matching ``(n,)`` normalisers or one shared value
    (:func:`shared_gaussian_normaliser`).  :func:`log_gaussian_pdf_batch`
    ends in this call, so components that share one variance get the bits
    that function gives them, without re-flooring the variance or
    re-summing the normaliser per component.
    """
    m, n = queries.shape[0], means.shape[0]
    if n == 0:
        return np.empty((m, 0))
    out = np.empty((m, n))
    step = max(1, _BATCH_CHUNK_SCALARS // max(1, n * means.shape[1]))
    for start in range(0, m, step):
        chunk = queries[start : start + step]
        diff = chunk[:, None, :] - means[None, :, :]
        out[start : start + len(chunk)] = normaliser - 0.5 * np.sum(
            diff * diff / variances, axis=2
        )
    return out


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Numerically stable ``log(sum(exp(a)))`` along ``axis``.

    Handles empty inputs and all ``-inf`` slices (both yield ``-inf``) without
    emitting numpy warnings, which makes it safe for log densities of queries
    arbitrarily far from the data.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        if axis is None:
            return float("-inf")
        shape = list(a.shape)
        del shape[axis]
        return np.full(shape, -np.inf)
    amax = np.max(a, axis=axis, keepdims=True)
    # Replace -inf maxima by 0 so the subtraction below never produces NaN.
    shift = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        summed = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True))
    result = summed + shift
    if axis is None:
        return float(result.reshape(()))
    return np.squeeze(result, axis=axis)


def probabilities_from_log(log_values: np.ndarray) -> np.ndarray:
    """Normalised linear-space probabilities of a vector of log weights.

    ``exp(v - logsumexp(v))`` — the one sanctioned way to leave log space
    for a posterior: subtracting the log normaliser first keeps the largest
    term at ``exp(0)`` so the result never underflows to an all-zero vector
    (the pre-log-space engine's high-dimension failure mode).  All ``-inf``
    inputs yield an all-zero vector rather than NaN; callers decide on a
    fallback (the classifier uses a uniform posterior).
    """
    log_values = np.asarray(log_values, dtype=float)
    normaliser = logsumexp(log_values)
    if not np.isfinite(normaliser):
        return np.zeros_like(log_values)
    return np.exp(log_values - normaliser)


@dataclass(frozen=True)
class Gaussian:
    """A weighted diagonal-covariance Gaussian component.

    Attributes
    ----------
    mean:
        Component mean vector.
    variance:
        Per-dimension variance vector (diagonal covariance).
    weight:
        Mixing weight; components inside a mixture normally sum to one but the
        class does not enforce that on its own.
    """

    mean: np.ndarray
    variance: np.ndarray
    weight: float = 1.0

    def __post_init__(self) -> None:
        mean = _as_vector(self.mean, "mean")
        variance = _as_vector(self.variance, "variance")
        if mean.shape != variance.shape:
            raise ValueError(
                f"mean and variance must have the same shape, got {mean.shape} vs {variance.shape}"
            )
        if np.any(variance < 0):
            raise ValueError("variance must be non-negative")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", np.maximum(variance, 0.0))

    @property
    def dimension(self) -> int:
        """Number of dimensions of the component."""
        return self.mean.shape[0]

    def pdf(self, x: Sequence[float] | np.ndarray) -> float:
        """Unweighted density at ``x``."""
        return gaussian_pdf(np.asarray(x, float), self.mean, self.variance)

    def log_pdf(self, x: Sequence[float] | np.ndarray) -> float:
        """Unweighted log density at ``x``."""
        return log_gaussian_pdf(np.asarray(x, float), self.mean, self.variance)

    def weighted_pdf(self, x: Sequence[float] | np.ndarray) -> float:
        """Density at ``x`` multiplied by the component weight."""
        return self.weight * self.pdf(x)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` samples from the component."""
        std = np.sqrt(np.maximum(self.variance, MIN_VARIANCE))
        return rng.normal(self.mean, std, size=(size, self.dimension))

    def with_weight(self, weight: float) -> "Gaussian":
        """Return a copy of this component with a different weight."""
        return Gaussian(mean=self.mean.copy(), variance=self.variance.copy(), weight=weight)

    @staticmethod
    def from_points(points: np.ndarray, weight: float = 1.0) -> "Gaussian":
        """Fit a single Gaussian to a set of points by moments.

        Uses the biased (maximum likelihood) variance estimator, matching the
        cluster-feature arithmetic of the Bayes tree (SS/n - (LS/n)^2).
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        mean = points.mean(axis=0)
        variance = points.var(axis=0)
        return Gaussian(mean=mean, variance=variance, weight=weight)

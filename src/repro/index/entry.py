"""Node entries of the Bayes tree / R*-tree substrate.

Paper Definition 1: an entry stores the MBR of the objects in its subtree, a
pointer to the subtree and the cluster feature (n, LS, SS) of those objects.
Leaf nodes store the observations themselves (d-dimensional kernels), which we
model as :class:`LeafEntry` carrying the raw point and its class label.  A
kernel's family and bandwidth are its tree's (one kernel per tree): density
evaluations take them as arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..stats.gaussian import Gaussian
from .cluster_feature import ClusterFeature
from .decay import decay_factor
from .mbr import MBR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .decay import DecayClock
    from .node import Node

__all__ = ["LeafEntry", "DirectoryEntry"]


def _owned(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """A read-only float copy of ``values``."""
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(eq=False, slots=True)
class LeafEntry:
    """A stored observation: a d-dimensional kernel estimator at leaf level.

    Attributes
    ----------
    point:
        The observation vector (also the kernel center), held as the entry's
        own read-only copy.
    label:
        Optional class label; kept so a single tree can hold several classes
        (the structural modification discussed in paper §4.1).
    timestamp:
        Logical insertion time of the observation (0.0 when the owning tree
        keeps no clock).  Immutable: the decayed weight is always re-derived
        from it, so repeated aging never accumulates round-off.
    weight:
        Decayed view of the observation's unit weight,
        ``2 ** (-decay_rate * (now - timestamp))``, refreshed by
        :meth:`decay_to`.  Stays exactly 1.0 in undecayed trees.
    """

    point: np.ndarray
    label: Optional[object] = None
    timestamp: float = 0.0
    weight: float = 1.0
    _mbr: Optional[MBR] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # The entry owns a read-only copy of its point: a caller may reuse one
        # buffer across inserts, and the index keeps this array for the
        # entry's lifetime (also as both MBR bounds).
        self.point = _owned(self.point)
        if self.point.ndim != 1:
            raise ValueError("point must be a 1-d vector")
        self._mbr = None

    @property
    def dimension(self) -> int:
        return self.point.shape[0]

    @property
    def n_objects(self) -> float:
        """Decayed weight of this observation (exactly one without decay)."""
        return self.weight

    def decay_to(self, now: float, rate: float) -> None:
        """Refresh the decayed weight view for logical time ``now``.

        Computed directly from the immutable insertion timestamp (not by
        incremental scaling), so the result is exact and idempotent.
        """
        self.weight = decay_factor(rate, now - self.timestamp)

    @property
    def mbr(self) -> MBR:
        """Degenerate MBR covering just the stored point (cached; both bounds
        are the entry's read-only point)."""
        mbr = self._mbr
        if mbr is None:
            mbr = MBR._trusted(self.point, self.point)
            self._mbr = mbr
        return mbr

    @property
    def cluster_feature(self) -> ClusterFeature:
        return ClusterFeature.from_point(self.point, weight=self.weight)

    def to_gaussian(
        self,
        weight: float = 1.0,
        bandwidth: Optional[np.ndarray] = None,
        *,
        kernel: str,
    ) -> Gaussian:
        """Kernel estimator viewed as a Gaussian component.

        ``bandwidth`` and ``kernel`` are the owning tree's.  For a Gaussian
        kernel this is exact (variance ``h**2``); for an Epanechnikov kernel
        the Gaussian is moment matched (variance ``h**2 / 5``), which is only
        used when the entry is aggregated — the density evaluation path uses
        :meth:`density` instead.
        """
        h = _tree_bandwidth(bandwidth)
        variance = h ** 2 / 5.0 if kernel == "epanechnikov" else h ** 2
        return Gaussian(mean=self.point, variance=variance, weight=weight)

    def density(
        self,
        x: Sequence[float] | np.ndarray,
        bandwidth: Optional[np.ndarray] = None,
        *,
        kernel: str,
    ) -> float:
        """Kernel density contribution of this observation at ``x``.

        ``bandwidth`` and ``kernel`` are the owning tree's shared kernel
        bandwidth and family.
        """
        from ..stats.kernel import make_kernel

        return make_kernel(kernel, self.point, _tree_bandwidth(bandwidth)).pdf(x)


def _tree_bandwidth(bandwidth: Optional[np.ndarray]) -> np.ndarray:
    """The tree's kernel bandwidth; ``ValueError`` before the tree has one."""
    if bandwidth is None:
        raise ValueError("leaf entry has no bandwidth assigned yet")
    return bandwidth


@dataclass(eq=False, slots=True)
class DirectoryEntry:
    """An inner-node entry: MBR + subtree pointer + cluster feature (Def. 1).

    ``last_update`` is the logical time the cluster feature is valued at;
    decayed trees age it lazily with :meth:`decay_to` before reads and
    updates (paper §4.2).  Undecayed trees never touch it.
    """

    mbr: MBR
    cluster_feature: ClusterFeature
    child: "Node"
    last_update: float = 0.0

    @property
    def dimension(self) -> int:
        return self.mbr.dimension

    @property
    def n_objects(self) -> float:
        """(Decayed) total weight of the leaf observations in the subtree."""
        return self.cluster_feature.n

    def decay_to(self, now: float, rate: float) -> None:
        """Age the subtree summary to logical time ``now``.

        Scales all of ``(n, LS, SS)`` by ``2 ** (-rate * elapsed)`` in place —
        the decayed cluster-feature view of Definition 1.  Mean and variance
        are invariant under the common factor, so aged directory Gaussians
        keep their shape and only lose mixture weight.
        """
        if now < self.last_update:
            raise ValueError("time must not run backwards")
        self.cluster_feature.scale_in_place(decay_factor(rate, now - self.last_update))
        self.last_update = now

    def to_gaussian(
        self, weight: float | None = None, variance_inflation: Optional[np.ndarray] = None
    ) -> Gaussian:
        """Gaussian summarising the entry's subtree.

        The mean and variance come from the cluster feature (``LS/n`` and
        ``SS/n - (LS/n)^2``, paper Def. 1).  ``variance_inflation`` — normally
        the squared kernel bandwidth of the tree — is added to the variance so
        the entry is the exact moment match of the mixture of kernels stored
        in its subtree; without it, entries over very few objects degenerate
        to near-delta spikes.
        """
        gaussian = self.cluster_feature.to_gaussian(weight=weight)
        if variance_inflation is None:
            return gaussian
        return Gaussian(
            mean=gaussian.mean,
            variance=gaussian.variance + np.asarray(variance_inflation, dtype=float),
            weight=gaussian.weight,
        )

    def density(
        self, x: Sequence[float] | np.ndarray, variance_inflation: Optional[np.ndarray] = None
    ) -> float:
        """Unweighted Gaussian density of the subtree summary at ``x``."""
        return self.to_gaussian(weight=1.0, variance_inflation=variance_inflation).pdf(x)

    def refresh(self, clock: Optional["DecayClock"] = None) -> None:
        """Recompute MBR and CF bottom-up from the child node.

        Used after splits and by the bulk loaders, which build subtrees first
        and derive the parent entries afterwards.  With a ``clock``, the
        recomputed feature is the decayed view at ``clock.now`` (children are
        aged to the common time first).
        """
        self.mbr = self.child.compute_mbr()
        self.cluster_feature = self.child.compute_cluster_feature(clock=clock)
        if clock is not None:
            self.last_update = clock.now

    @staticmethod
    def for_node(node: "Node", clock: Optional["DecayClock"] = None) -> "DirectoryEntry":
        """Create an entry summarising ``node`` (decayed to ``clock.now`` if given)."""
        return DirectoryEntry(
            mbr=node.compute_mbr(),
            cluster_feature=node.compute_cluster_feature(clock=clock),
            child=node,
            last_update=0.0 if clock is None else clock.now,
        )

"""Configuration of the Bayes tree and the live anytime classifier."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..index.rstar import TreeParameters

__all__ = ["BayesTreeConfig"]


@dataclass(frozen=True)
class BayesTreeConfig:
    """Parameters of a Bayes tree.

    Attributes
    ----------
    tree:
        Fanout / leaf capacity parameters (m, M, l, L) of the underlying
        R*-tree.  The paper derives the fanout from a disk page size; here it
        is an explicit parameter (see DESIGN.md, substitutions).
    kernel:
        Kernel family used at leaf level, ``"gaussian"`` (paper default) or
        ``"epanechnikov"`` (future-work option).
    bandwidth_scale:
        Multiplier applied to the Silverman rule-of-thumb bandwidth; 1.0
        reproduces the paper's data-independent setting.
    decay_rate:
        Exponent ``lambda`` of the ``2 ** (-lambda * dt)`` exponential decay
        applied to all stored statistics as the tree's logical clock advances
        (the §4.2 anytime-stream extension).  0.0 (the default) disables
        decay entirely and keeps every code path bit-identical to the
        never-forgetting tree of the paper's main sections.
    expiry_threshold:
        Decayed weight below which a stored kernel is considered
        insignificant and may be expired from the tree (bounding memory on
        infinite streams).  0.0 disables expiry; only meaningful together
        with a positive ``decay_rate``.
    """

    tree: TreeParameters = field(default_factory=TreeParameters)
    kernel: str = "gaussian"
    bandwidth_scale: float = 1.0
    decay_rate: float = 0.0
    expiry_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.kernel not in ("gaussian", "epanechnikov"):
            raise ValueError("kernel must be 'gaussian' or 'epanechnikov'")
        if self.bandwidth_scale <= 0:
            raise ValueError("bandwidth_scale must be positive")
        if self.decay_rate < 0:
            raise ValueError("decay_rate must be non-negative")
        if not (0.0 <= self.expiry_threshold < 1.0):
            raise ValueError("expiry_threshold must be in [0, 1)")
        if self.expiry_threshold > 0 and self.decay_rate == 0:
            raise ValueError("expiry_threshold requires a positive decay_rate")

    def to_dict(self) -> dict:
        """Plain-data view of the configuration (snapshot manifests).

        Every value is a JSON-native scalar; Python's JSON encoder emits
        floats via ``repr``, which round-trips every finite float exactly —
        a restored configuration therefore decays, expires and scales
        bandwidths bit-identically to the saved one.
        """
        return {
            "tree": asdict(self.tree),
            "kernel": self.kernel,
            "bandwidth_scale": self.bandwidth_scale,
            "decay_rate": self.decay_rate,
            "expiry_threshold": self.expiry_threshold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BayesTreeConfig":
        """Inverse of :meth:`to_dict` (validates through the constructors)."""
        return cls(
            tree=TreeParameters(**data["tree"]),
            kernel=data["kernel"],
            bandwidth_scale=data["bandwidth_scale"],
            decay_rate=data["decay_rate"],
            expiry_threshold=data["expiry_threshold"],
        )


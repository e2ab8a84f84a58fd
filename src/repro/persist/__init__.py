"""Durable forest snapshots: a portable, versioned, pickle-free format.

``save_forest`` serializes a full :class:`~repro.core.AnytimeBayesClassifier`
— R*-tree topology, decayed cluster features with insertion timestamps, the
logical decay clock, running bandwidth statistics, priors' inputs and the
configuration — into a compact ``.npz``/JSON container; ``load_forest``
restores a forest whose predictions, refinement traces and future training
behaviour are bit-identical to the saved one.  No pickle is involved at any
point, so snapshots can be exchanged between untrusting processes (the
sharded serving engine in :mod:`repro.serving` is built on exactly that).

Snapshots additionally carry the compiled flat-forest columns
(:class:`repro.core.flat.FlatForest`) as uncompressed, memory-mappable
members: ``load_flat_forest`` opens the read-optimised twin of the same
forest without rebuilding an object graph, ``read_flat_columns`` exposes
the raw columns, and ``read_snapshot`` returns the manifest with those
columns for the serving registry to place in shared memory.  Every loader
makes one pass over the archive, and ``save_forest`` publishes atomically
(temp file, then rename), so re-saving never tears a reader's mapped
columns.

Multi-tenant deployments additionally persist a *tenant manifest*
(:mod:`repro.persist.tenants`): a small versioned JSON catalogue mapping
tenant names to snapshot paths and per-tenant serving policies, plus an
optional shared global-prior snapshot — the durable half of
:class:`repro.serving.ModelRegistry`.
"""

from .snapshot import (
    FORMAT_VERSION,
    SnapshotError,
    SnapshotVersionError,
    load_flat_forest,
    load_forest,
    read_flat_columns,
    read_manifest,
    read_snapshot,
    save_forest,
)
from .tenants import (
    TENANT_MANIFEST_VERSION,
    read_tenant_manifest,
    save_tenant_manifest,
)

__all__ = [
    "FORMAT_VERSION",
    "TENANT_MANIFEST_VERSION",
    "SnapshotError",
    "SnapshotVersionError",
    "load_flat_forest",
    "load_forest",
    "read_flat_columns",
    "read_manifest",
    "read_snapshot",
    "read_tenant_manifest",
    "save_forest",
    "save_tenant_manifest",
]

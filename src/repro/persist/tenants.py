"""Tenant manifest: a durable, versioned catalogue of per-tenant snapshots.

A multi-tenant deployment is a set of forest snapshots plus routing facts —
which tenant maps to which container, which per-tenant serving policy (budget
clamp, cold-start behaviour) applies, and which shared snapshot serves as the
global prior for tenants that have no model yet.  This module persists that
catalogue as one small JSON document next to the snapshots themselves, in the
same spirit as the snapshot format: versioned, validated on read, and
pickle-free so it can be exchanged between untrusting processes.

Shape (``TENANT_MANIFEST_VERSION`` 1)::

    {
      "magic": "repro-tenant-manifest",
      "manifest_version": 1,
      "prior_snapshot": "snapshots/global_prior.npz" | null,
      "tenants": {
        "acme": {"snapshot": "snapshots/acme.npz",
                 "policy": {"max_node_budget": 32, "weight": 2.0,
                            "max_queue_depth": 256, "requests_per_sec": 500}},
        ...
      }
    }

``snapshot`` paths are stored as written (typically relative to the manifest
file); :func:`read_tenant_manifest` resolves relative paths against the
manifest's own directory so the catalogue stays relocatable.  The policy dict
is deliberately open-ended plain JSON — :class:`repro.serving.TenantPolicy`
validates the known keys when a registry loads it (the admission-control
fields ``weight`` / ``max_queue_depth`` / ``requests_per_sec`` ride the same
dict and round-trip verbatim; manifests from before those fields existed
load unchanged with the policy defaults).

:meth:`repro.serving.ModelRegistry.from_manifest` consumes this format to
register every tenant lazily (models become resident on first use, within
the registry's LRU bounds).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Optional

from .snapshot import SnapshotError, _publish

__all__ = [
    "TENANT_MANIFEST_VERSION",
    "read_tenant_manifest",
    "save_tenant_manifest",
]

TENANT_MANIFEST_VERSION = 1

_MAGIC = "repro-tenant-manifest"


def save_tenant_manifest(
    path: "str | Path",
    tenants: Mapping[str, Mapping[str, object]],
    prior_snapshot: "str | Path | None" = None,
) -> None:
    """Write a tenant manifest document (atomically: temp file, then rename).

    Parameters
    ----------
    path:
        Where to write the JSON document.
    tenants:
        ``tenant name -> {"snapshot": path, "policy": {...}}`` mapping; the
        ``policy`` key is optional and stored verbatim (plain JSON).
    prior_snapshot:
        Optional shared global-prior snapshot used for cold-start fallback.

    Raises
    ------
    ValueError
        For an empty tenant name or an entry without a ``snapshot`` key.
    """
    catalogue: Dict[str, dict] = {}
    for name in sorted(tenants, key=str):
        entry = tenants[name]
        if not str(name):
            raise ValueError("tenant names must be non-empty strings")
        if "snapshot" not in entry:
            raise ValueError(f"tenant {name!r} entry has no 'snapshot' key")
        record: dict = {"snapshot": str(entry["snapshot"])}
        policy = entry.get("policy")
        if policy is not None:
            record["policy"] = dict(policy)  # type: ignore[call-overload]
        catalogue[str(name)] = record
    document = {
        "magic": _MAGIC,
        "manifest_version": TENANT_MANIFEST_VERSION,
        "prior_snapshot": None if prior_snapshot is None else str(prior_snapshot),
        "tenants": catalogue,
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    _publish(Path(path), lambda handle: handle.write(text.encode("utf-8")))


def read_tenant_manifest(path: "str | Path") -> dict:
    """Read and validate a tenant manifest; resolve relative snapshot paths.

    Returns ``{"prior_snapshot": str | None, "tenants": {name: {"snapshot":
    str, "policy": dict}}}`` with every snapshot path made absolute against
    the manifest's directory.  Raises :class:`~repro.persist.SnapshotError`
    on unreadable, version-mismatched or structurally invalid documents —
    the same typed-error envelope the snapshot readers use.
    """
    manifest_path = Path(path)
    try:
        document = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as error:
        raise SnapshotError(f"unreadable tenant manifest {path}: {error}") from error
    if not isinstance(document, dict) or document.get("magic") != _MAGIC:
        raise SnapshotError(f"{path} is not a tenant manifest (wrong magic)")
    version = document.get("manifest_version")
    if version != TENANT_MANIFEST_VERSION:
        raise SnapshotError(
            f"tenant manifest version {version!r} is not supported "
            f"(this build reads version {TENANT_MANIFEST_VERSION})"
        )
    tenants = document.get("tenants")
    if not isinstance(tenants, dict):
        raise SnapshotError(f"tenant manifest {path} has no 'tenants' mapping")
    base = manifest_path.resolve().parent

    def _resolve(snapshot: object) -> str:
        candidate = Path(str(snapshot))
        return str(candidate if candidate.is_absolute() else base / candidate)

    catalogue: Dict[str, dict] = {}
    for name, entry in tenants.items():
        if not isinstance(entry, dict) or "snapshot" not in entry:
            raise SnapshotError(
                f"tenant manifest {path}: entry for {name!r} must be a dict "
                "with a 'snapshot' key"
            )
        policy = entry.get("policy", {})
        if not isinstance(policy, dict):
            raise SnapshotError(f"tenant manifest {path}: policy for {name!r} must be a dict")
        catalogue[str(name)] = {"snapshot": _resolve(entry["snapshot"]), "policy": dict(policy)}
    prior: Optional[str] = None
    if document.get("prior_snapshot") is not None:
        prior = _resolve(document["prior_snapshot"])
    return {"prior_snapshot": prior, "tenants": catalogue}

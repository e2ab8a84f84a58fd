"""Snapshot container format for Bayes forests.

Layout: one ``.npz`` archive (zip of ``.npy`` members) holding

* ``manifest`` — a UTF-8 JSON document (stored as a ``uint8`` array) with the
  magic string, format version, classifier-level settings (configuration,
  descent strategy, qbk k, dimension), the class labels and each class's
  kernel count,
* ``forest__floats`` — forest-level float state (the logical "now"),
* ``flat__*`` — the compiled :class:`repro.core.flat.FlatForest` columns
  (``flat__t{i}__*`` per tree plus ``flat__forest__log_priors``): the model
  itself, which serving reads as it is and from which :func:`load_forest`
  rebuilds each live tree,
* ``t{i}__*`` — per class tree, what only the write side keeps
  (:meth:`repro.core.bayes_tree.BayesTree.export_state`): each directory
  entry's ``LS`` and ``SS``, each kernel's insertion time, the running
  ``(n, LS, SS)`` statistics, the shared Silverman bandwidth and the decay
  and expiry bookkeeping.

The archive members are **stored uncompressed** (``numpy.savez``): every
``.npy`` member sits verbatim inside the zip, so the loaders hand out
``numpy.memmap`` views of the flat columns straight into the file — a server
"loads" a multi-gigabyte forest by mapping pages, not by copying them.
``numpy.load`` reads compressed members too, so externally recompressed
snapshots still load (those members are read instead of mapped).

Design constraints, in order:

1. **No pickle.**  Arrays are loaded with ``allow_pickle=False`` and labels
   travel through an explicit typed codec — a snapshot is safe to load even
   from an untrusted producer (it can be malformed, never executable).
2. **Bit-identical restore.**  Every float is stored verbatim (numpy arrays
   in the archive; JSON floats round-trip exactly through ``repr``), and
   topology and entry order are restored 1:1.  A forest restored through
   :func:`load_forest` or :func:`load_flat_forest` produces refinement
   traces hash-identical to the live forest the snapshot was saved from.
3. **Versioned.**  ``FORMAT_VERSION`` gates the loader: snapshots from a
   different format version are rejected with :class:`SnapshotVersionError`
   instead of being misinterpreted; corrupt, truncated or malformed
   containers raise :class:`SnapshotError`.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, Dict, Hashable, Iterator, Optional, Tuple

import numpy as np

from ..core.descent import DESCENT_STRATEGIES
from ..core.flat import FlatForest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.classifier import AnytimeBayesClassifier

__all__ = [
    "FORMAT_VERSION",
    "SnapshotError",
    "SnapshotVersionError",
    "save_forest",
    "load_forest",
    "load_flat_forest",
    "read_manifest",
    "read_snapshot",
]

#: Bumped whenever the container layout changes incompatibly.
#: Version 2: flat forest columns and uncompressed (mmap-able) archive
#: members.  Version 3: leaf rows in pre-order, and 14 flat columns per tree.
#: Version 4: one kernel family and bandwidth per tree, and 13 flat columns
#: per tree — directory slots first, then one contiguous kernel block.
#: Version 5: the flat columns are the only copy of the model; each tree
#: adds just its write-side members (no second topology, no kernel labels).
FORMAT_VERSION = 5

_MAGIC = "repro-bayes-forest"

#: Member-name prefix of the compiled flat-forest columns.
_FLAT_PREFIX = "flat__"


class SnapshotError(RuntimeError):
    """The file is not a readable forest snapshot (corrupt, truncated, alien)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot uses a format version this code does not understand."""


# -- label codec -----------------------------------------------------------------------------
#
# Labels are arbitrary hashables in the classifier API; without pickle we
# support the types that actually occur (JSON scalars, numpy scalars, tuples
# thereof) through a small typed encoding.  Numpy integer labels must restore
# as numpy integers: prediction tie-breaking sorts labels by ``repr``, and
# ``repr(np.int64(3))`` differs from ``repr(3)`` — a type-lossy round-trip
# could reorder ties and break bit-identical traces.

def _encode_label(label: Hashable) -> list:
    if label is None:
        return ["none"]
    if isinstance(label, (bool, np.bool_)):
        return ["bool", bool(label)]
    if isinstance(label, np.integer):
        return ["npint", label.dtype.name, int(label)]
    if isinstance(label, np.floating):
        return ["npfloat", label.dtype.name, float(label)]
    if isinstance(label, int):
        return ["int", int(label)]
    if isinstance(label, float):
        return ["float", label]
    if isinstance(label, str):
        return ["str", label]
    if isinstance(label, tuple):
        return ["tuple", [_encode_label(item) for item in label]]
    raise SnapshotError(
        f"label {label!r} of type {type(label).__name__} cannot be serialized "
        "without pickle; use str/int/float/bool/None/numpy scalars or tuples thereof"
    )


def _decode_label(spec: list) -> Hashable:
    kind = spec[0]
    if kind == "none":
        return None
    if kind == "bool":
        return bool(spec[1])
    if kind == "int":
        return int(spec[1])
    if kind == "float":
        return float(spec[1])
    if kind == "str":
        return str(spec[1])
    if kind == "npint" or kind == "npfloat":
        return np.dtype(spec[1]).type(spec[2])
    if kind == "tuple":
        return tuple(_decode_label(item) for item in spec[1])
    raise SnapshotError(f"unknown label encoding {spec!r}")


# -- saving -----------------------------------------------------------------------------------

def save_forest(classifier: "AnytimeBayesClassifier", path: "str | Path") -> Path:
    """Serialize a fitted forest into the snapshot container at ``path``.

    The snapshot holds the compiled flat-forest columns, which serving maps
    zero-copy (:func:`read_snapshot`, :func:`load_flat_forest`), and each
    class tree's write-side state, from which :func:`load_forest` rebuilds
    the live forest over those columns.

    The file is published atomically: written beside ``path`` and renamed
    over it, so a reader still holding the old snapshot (an open file or
    memory-mapped columns) keeps it intact.

    Returns the path written.  Raises :class:`SnapshotError` for classifiers
    that cannot be represented (unfitted, custom descent strategies outside
    the registry, non-serializable labels).
    """
    if not classifier.is_fitted or classifier.dimension is None:
        raise SnapshotError("cannot snapshot an unfitted classifier")
    descent_name = getattr(classifier.descent, "name", None)
    if descent_name not in DESCENT_STRATEGIES:
        raise SnapshotError(
            f"descent strategy {classifier.descent!r} is not in the registry "
            f"{DESCENT_STRATEGIES}; snapshots only carry registered strategies"
        )

    # A tree's write-side rows follow its twin's slots and are valued at its
    # compile time (``export_state`` compiles before it exports), so the
    # columns and the state describe one model.
    flat = classifier.compile_flat()
    arrays = {
        _FLAT_PREFIX + name: np.ascontiguousarray(array)
        for name, array in flat.to_columns().items()
    }
    for index, tree in enumerate(classifier.trees.values()):
        for name, array in tree.export_state().items():
            arrays[f"t{index}__{name}"] = array
    manifest = {
        "magic": _MAGIC,
        "format_version": FORMAT_VERSION,
        "dimension": int(classifier.dimension),
        "descent": descent_name,
        "qbk_k": classifier.qbk_k,
        "config": classifier.config.to_dict(),
        "classes": [_encode_label(label) for label in classifier.trees],
        "trees": [{"n": tree.n_objects} for tree in classifier.trees.values()],
    }
    arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
    arrays["forest__floats"] = np.array([classifier._now], dtype=float)

    path = Path(path)
    # savez appends ".npz" to bare filenames; writing through a file object
    # keeps the caller's path verbatim.  Members are deliberately
    # uncompressed (STORED) so loaders can memory-map them in place.
    _publish(path, lambda handle: np.savez(handle, **arrays))
    return path


def _publish(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Write a file atomically: a sibling temp file, then ``os.replace``.

    Readers that hold the old file (an open handle, or a memory map of
    snapshot columns) keep its inode intact; rewriting the path in place
    would truncate the pages under their maps (SIGBUS on the next read).
    The temp file is deleted if writing or renaming fails.
    """
    temp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(temp, "xb") as handle:
            write(handle)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


# -- loading ----------------------------------------------------------------------------------
#
# Every loader makes one pass over the archive (``_open_snapshot``).  Flat
# members are mapped through that pass's parsed zip directory: reopening the
# zip per member re-parses every directory entry each time.

def _parse_manifest(data: Any) -> dict:
    if "manifest" not in data.files:
        raise SnapshotError("not a forest snapshot (no manifest member)")
    try:
        manifest = json.loads(bytes(data["manifest"]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise SnapshotError(f"unreadable snapshot manifest: {error}") from error
    if not isinstance(manifest, dict) or manifest.get("magic") != _MAGIC:
        raise SnapshotError("not a forest snapshot (wrong magic)")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"snapshot format version {version!r} is not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return manifest


@contextmanager
def _open_snapshot(path: "str | Path") -> Iterator[Tuple[BinaryIO, Any, dict]]:
    """Open a snapshot once: yields ``(handle, data, manifest)``.

    ``data`` is the ``np.load`` archive over ``handle`` (its ``zip`` holds
    the parsed central directory) and ``manifest`` the validated manifest.
    Any error inside the block, the caller's included, surfaces as
    :class:`SnapshotError`.
    """
    try:
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as data:
            yield handle, data, _parse_manifest(data)
    except SnapshotError:
        raise
    except Exception as error:
        raise SnapshotError(f"unreadable snapshot {path}: {error}") from error


def _summary(manifest: dict) -> dict:
    """The decoded manifest fields :func:`read_manifest` returns."""
    return {
        "format_version": manifest["format_version"],
        "dimension": manifest["dimension"],
        "descent": manifest["descent"],
        "qbk_k": manifest["qbk_k"],
        "config": manifest["config"],
        "classes": [_decode_label(spec) for spec in manifest["classes"]],
        "class_counts": [tree["n"] for tree in manifest["trees"]],
    }


def read_manifest(path: "str | Path") -> dict:
    """Read and decode only the snapshot manifest (no tree reconstruction).

    Returns a dict with ``dimension``, ``descent``, ``qbk_k``, the raw
    ``config`` dict, ``classes`` (decoded labels, forest order) and
    ``class_counts`` (stored observations per class), without paying for a
    full restore.
    """
    with _open_snapshot(path) as (_, _, manifest):
        return _summary(manifest)


def _restore(handle: BinaryIO, data: Any, manifest: dict) -> "AnytimeBayesClassifier":
    # The live classes, and the R* index under them, load here only: a
    # process that serves flat columns never restores an object graph.
    from ..core.bayes_tree import BayesTree
    from ..core.classifier import AnytimeBayesClassifier
    from ..core.config import BayesTreeConfig

    flat = _flat_forest(handle, data, manifest)
    config = BayesTreeConfig.from_dict(manifest["config"])
    classifier = AnytimeBayesClassifier(
        config=config, descent=manifest["descent"], qbk_k=manifest["qbk_k"]
    )
    classifier.dimension = flat.dimension
    classifier._now = float(np.asarray(data["forest__floats"], dtype=float)[0])
    if len(manifest["classes"]) != len(manifest["trees"]):
        raise SnapshotError("malformed snapshot: class/tree tables disagree")
    for index, (label, meta) in enumerate(zip(flat.labels, manifest["trees"])):
        prefix = f"t{index}__"
        state = {
            name[len(prefix) :]: data[name] for name in data.files if name.startswith(prefix)
        }
        tree = BayesTree.from_state(flat.trees[label], state, config=config, label=label)
        if len(tree.index) != meta["n"]:
            raise SnapshotError("malformed snapshot: stored size disagrees with topology")
        classifier.trees[label] = tree
    classifier._invalidate_priors()
    return classifier


def _member_view(
    handle: BinaryIO, archive: zipfile.ZipFile, mapped: np.ndarray, member: str
) -> Optional[np.ndarray]:
    """A read-only view of one uncompressed ``.npy`` member in the mapped archive.

    ``archive`` is the zip over ``handle`` whose central directory was parsed
    once for the whole load, and ``mapped`` a ``np.memmap`` of the whole
    file.  Returns ``None`` when the member cannot be mapped (compressed,
    Fortran-ordered, object dtype, unknown npy version, or declaring more
    bytes than the member stores) — callers fall back to a plain copying
    read.  The offset arithmetic walks the zip *local* file header (30 fixed
    bytes + name + extra field; the extra field may differ from the central
    directory's copy) and then the npy header, after which the file cursor
    sits exactly on the raw array bytes.
    """
    try:
        info = archive.getinfo(member + ".npy")
    except KeyError:  # stored without the .npy suffix
        return None
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    handle.seek(info.header_offset)
    header = handle.read(30)
    if len(header) != 30 or header[:4] != b"PK\x03\x04":
        return None
    name_length = int.from_bytes(header[26:28], "little")
    extra_length = int.from_bytes(header[28:30], "little")
    start = info.header_offset + 30 + name_length + extra_length
    handle.seek(start)
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
    else:
        return None
    if fortran or dtype.hasobject:
        return None
    offset = handle.tell()
    end = offset + math.prod(shape) * dtype.itemsize
    if end > start + info.file_size:
        return None
    return mapped[offset:end].view(dtype).reshape(shape)


def _flat_columns(handle: BinaryIO, data: Any) -> Dict[str, np.ndarray]:
    """The flat columns of an open snapshot (``flat__`` prefix stripped).

    Every member that can be mapped is a view into one read-only
    ``np.memmap`` of the file; the rest are read normally.  Raises
    :class:`SnapshotError` when the snapshot carries no flat columns.
    """
    mapped = np.memmap(handle, mode="r")
    columns: Dict[str, np.ndarray] = {}
    for name in data.files:
        if not name.startswith(_FLAT_PREFIX):
            continue
        view = _member_view(handle, data.zip, mapped, name)
        columns[name[len(_FLAT_PREFIX) :]] = data[name] if view is None else view
    if not columns:
        raise SnapshotError("snapshot carries no flat forest columns")
    return columns


def _flat_forest(handle: BinaryIO, data: Any, manifest: dict) -> FlatForest:
    """The validated flat forest of an open snapshot, over its mapped columns."""
    summary = _summary(manifest)
    return FlatForest.from_columns(
        _flat_columns(handle, data),
        labels=summary["classes"],
        descent=summary["descent"],
        qbk_k=summary["qbk_k"],
        dimension=int(summary["dimension"]),
    )


def read_snapshot(path: "str | Path") -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read a snapshot's manifest and memory-mapped flat columns in one pass.

    Returns ``(manifest, columns)``: the :func:`read_manifest` dict and the
    flat columns (``flat__`` prefix stripped), each uncompressed member a
    read-only memory map into the snapshot file — opening a multi-gigabyte
    forest touches no data pages until they are actually queried.  This is
    the serving registry's load: one open of the file and one parse of its
    zip directory.  Raises :class:`SnapshotError` when the snapshot carries
    no flat columns or is unreadable.
    """
    with _open_snapshot(path) as (handle, data, manifest):
        return _summary(manifest), _flat_columns(handle, data)


def load_flat_forest(path: "str | Path") -> FlatForest:
    """Restore the compiled flat forest from a snapshot, zero-copy.

    The returned :class:`FlatForest` serves the full prediction surface with
    refinement traces hash-identical to :func:`load_forest` of the same
    snapshot, but its columns are memory-mapped views into the file rather
    than rebuilt object graphs — this is the milliseconds-order warm-start
    path of the serving engine.  Raises :class:`SnapshotVersionError` /
    :class:`SnapshotError` like the other loaders, including for
    structurally inconsistent flat columns.
    """
    with _open_snapshot(path) as (handle, data, manifest):
        return _flat_forest(handle, data, manifest)


def load_forest(path: "str | Path") -> "AnytimeBayesClassifier":
    """Restore a forest from a snapshot written by :func:`save_forest`.

    Each class tree is rebuilt from its validated flat columns and its
    write-side members.  The restored classifier produces bit-identical
    predictions, refinement traces and (given the same subsequent stream)
    training behaviour as the saved one.  Raises
    :class:`SnapshotVersionError` for snapshots of another format version and
    :class:`SnapshotError` for anything unreadable or malformed, a file
    without flat columns included.
    """
    with _open_snapshot(path) as (handle, data, manifest):
        return _restore(handle, data, manifest)

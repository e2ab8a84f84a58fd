"""Shared-memory column store: one physical forest copy for N workers.

The flat forest (:mod:`repro.core.flat`) is a set of read-only numpy columns,
which makes cross-process sharing trivial in principle: place the bytes in a
POSIX shared-memory segment once, and let every shard worker wrap zero-copy
array views around the same physical pages.  This module owns the mechanics:

* :class:`SharedColumnStore` — creator side.  Packs a ``name → array``
  mapping into one segment (64-byte-aligned members) and records a layout
  table ``name → (offset, shape, dtype)`` that travels to workers as plain
  picklable data.  The creator reads its own map (:meth:`~SharedColumnStore.views`)
  and removes the segment's name (:meth:`~SharedColumnStore.unlink_name`)
  once every other process has mapped it; a ``weakref.finalize`` closes the
  map, and unlinks a name still linked, even on unclean interpreter exit.
* :func:`attach_columns` — worker side.  Attaches to the segment by name,
  validates the advertised layout against the actual segment size (a
  truncated segment raises ``ValueError`` instead of serving garbage), and
  returns read-only views.
* :func:`memory_profile` — RSS introspection from ``/proc`` used by the
  ``/stats`` endpoint to demonstrate the O(1)-in-workers memory behaviour
  (shared pages are counted once, private pages per process).

No resource tracker: the stdlib ``SharedMemory`` registers every create and
every attach with ``multiprocessing.resource_tracker`` on POSIX, and
unregisters on unlink; each call starts the tracker, a separate interpreter
process, if it is not running.  The tracker exists to unlink names a crash
leaks, but a segment's name here lives only from its create to its unlink,
a few milliseconds inside one build, so there is nothing for it to do.
Every create, attach and unlink in this module therefore runs inside
:func:`_untracked`, which suppresses both calls — one code path for
Python 3.10–3.13 (reprolint RL003 keeps it that way).  POSIX keeps an
unlinked segment's pages for as long as any process maps them.
"""

from __future__ import annotations

import gc
import secrets
import threading
import weakref
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "SharedColumnStore",
    "attach_columns",
    "release_attachment",
    "memory_profile",
    "segment_exists",
]

#: Byte alignment of member arrays inside the segment; cache-line friendly
#: and satisfies every numpy dtype alignment requirement.
_ALIGN = 64

#: Layout table entry: (byte offset, shape tuple, dtype string).
ColumnLayout = Dict[str, Tuple[int, Tuple[int, ...], str]]


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _plan_layout(columns: Mapping[str, np.ndarray]) -> Tuple[ColumnLayout, int]:
    """Assign aligned offsets to every column; returns (layout, total bytes)."""
    layout: ColumnLayout = {}
    offset = 0
    for name in sorted(columns):
        array = np.ascontiguousarray(columns[name])
        offset = _aligned(offset)
        layout[name] = (offset, tuple(array.shape), array.dtype.str)
        offset += array.nbytes
    return layout, max(offset, 1)


#: Serialises the tracker patching of :func:`_untracked` within a process.
_TRACKER_LOCK = threading.Lock()


def _ignore(name: object, rtype: object) -> None:
    """Stand-in for ``resource_tracker.register``/``unregister``: does nothing."""


@contextmanager
def _untracked() -> Iterator[None]:
    """Run a ``SharedMemory`` create, attach or unlink without the resource tracker.

    The stdlib calls ``resource_tracker.register`` on create and on attach
    and ``resource_tracker.unregister`` on unlink, and each call first
    starts the tracker process if it is not running.  Suppressing both for
    the duration of the call means no process of the serving stack ever
    starts one, and no attaching process is registered as an owner whose
    exit would unlink the segment for everyone else.  The patch is
    process-wide while it lasts, so another thread's tracker call inside
    that window, one shm system call long, is dropped too.
    """
    with _TRACKER_LOCK:
        register, unregister = resource_tracker.register, resource_tracker.unregister
        resource_tracker.register = resource_tracker.unregister = _ignore
        try:
            yield
        finally:
            resource_tracker.register, resource_tracker.unregister = register, unregister


def _attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment by name, untracked."""
    with _untracked():
        return shared_memory.SharedMemory(name=name, create=False)


def _unlink(shm: shared_memory.SharedMemory) -> None:
    """Remove a segment's name, untracked; a name already gone is fine."""
    try:
        with _untracked():
            shm.unlink()
    except FileNotFoundError:
        pass


class SharedColumnStore:
    """A shared-memory segment holding a set of read-only numpy columns.

    Created by the model registry from a flat forest's columns; shard
    workers attach with :func:`attach_columns` using the store's ``name``
    and ``layout``, and the creator wraps :meth:`views` of its own map.
    Once every process that needs the segment has mapped it,
    :meth:`unlink_name` removes the name, so nothing attaches by name after
    that.  :meth:`dispose` (or garbage collection of the store, via
    ``weakref.finalize``) closes the creator's map exactly once, and also
    unlinks the name if a failed build never did.
    """

    def __init__(self, columns: Mapping[str, np.ndarray], name: Optional[str] = None) -> None:
        layout, total = _plan_layout(columns)
        if name is None:
            # Short random suffix: segment names are a global OS namespace.
            name = f"repro-forest-{secrets.token_hex(6)}"
        with _untracked():
            self._shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        self.name = self._shm.name
        self.layout = layout
        self.size = total
        buffer = self._shm.buf
        for column_name, (offset, shape, dtype_str) in layout.items():
            source = np.ascontiguousarray(columns[column_name])
            view = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=buffer, offset=offset)
            view[...] = source
        self._finalizer = weakref.finalize(self, _dispose_segment, self._shm)

    def views(self) -> Dict[str, np.ndarray]:
        """Read-only zero-copy views of every column over the creator's map."""
        return _map_columns(self._shm, self.layout)

    def unlink_name(self) -> None:
        """Remove the segment's name (idempotent); every existing map stays valid."""
        _unlink(self._shm)

    def dispose(self) -> None:
        """Close the creator's map, unlinking the name if still linked (idempotent)."""
        self._finalizer()


def _dispose_segment(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:
        # Live views in this process keep the mapping alive; it goes when
        # they do.
        pass
    except Exception:
        pass
    try:
        _unlink(shm)
    except Exception:
        pass


def _map_columns(shm: shared_memory.SharedMemory, layout: ColumnLayout) -> Dict[str, np.ndarray]:
    """Read-only zero-copy views of a mapped segment's columns."""
    buffer = shm.buf
    if buffer is None:  # np.ndarray(buffer=None) would hand out fresh, unrelated memory
        raise ValueError(f"shared memory segment {shm.name!r} is no longer mapped here")
    columns: Dict[str, np.ndarray] = {}
    for column_name, (offset, shape, dtype_str) in layout.items():
        view = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=buffer, offset=offset)
        view.flags.writeable = False
        columns[column_name] = view
    return columns


def attach_columns(
    name: str, layout: ColumnLayout
) -> Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]:
    """Attach to a :class:`SharedColumnStore` segment and map its columns.

    Returns the open ``SharedMemory`` handle (the caller keeps it alive for
    as long as the views are used, and closes it on release) and a dict of
    read-only zero-copy array views.  Raises ``ValueError`` when the segment
    is smaller than the advertised layout — attaching to a truncated segment
    must fail loudly, not serve partial columns.
    """
    shm = _attach(name)
    required = 0
    for offset, shape, dtype_str in layout.values():
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype_str).itemsize
        required = max(required, offset + nbytes)
    if shm.size < required:
        shm.close()
        raise ValueError(
            f"shared memory segment {name!r} holds {shm.size} bytes but the "
            f"column layout requires {required} (truncated segment)"
        )
    return shm, _map_columns(shm, layout)


def release_attachment(shm: Optional[shared_memory.SharedMemory]) -> None:
    """Close a worker-side attachment, tolerating live numpy views.

    Numpy views pin the exported buffer; dropping the caller's references and
    collecting cycles first usually releases it.  If something still holds a
    view, the close is skipped (the mapping dies with the process) rather
    than crashing the worker mid-swap.
    """
    if shm is None:
        return
    gc.collect()
    try:
        shm.close()
    except BufferError:
        pass
    except Exception:
        pass


def segment_exists(name: str) -> bool:
    """Whether a shared-memory segment with this name is still linked.

    Probe for leak assertions: once a build has returned, its segment's
    name must no longer resolve.  The probe attaches untracked and closes
    immediately, so it neither adopts nor extends the segment's lifetime.
    """
    try:
        shm = _attach(name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


def memory_profile() -> Dict[str, float]:
    """Current process RSS split into shared and private pages (kilobytes).

    Reads ``/proc/self/smaps_rollup`` (Linux).  ``shared_kb`` counts pages
    also mapped elsewhere — e.g. the one physical copy of the forest columns
    — while ``private_kb`` is this process's own incremental footprint, the
    quantity that must stay flat as workers are added.  Returns zeros on
    platforms without ``/proc``.
    """
    profile = {"rss_kb": 0.0, "shared_kb": 0.0, "private_kb": 0.0}
    try:
        with open("/proc/self/smaps_rollup", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Rss:"):
                    profile["rss_kb"] = float(line.split()[1])
                elif line.startswith(("Shared_Clean:", "Shared_Dirty:")):
                    profile["shared_kb"] += float(line.split()[1])
                elif line.startswith(("Private_Clean:", "Private_Dirty:")):
                    profile["private_kb"] += float(line.split()[1])
    except OSError:
        pass
    return profile

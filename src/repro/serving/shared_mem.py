"""Shared-memory column store: a tenant's flat forest columns in one segment.

The flat forest (:mod:`repro.core.flat`) is a set of read-only numpy columns.
:class:`SharedColumnStore` packs a ``name → array`` mapping into one POSIX
shared-memory segment (64-byte-aligned members), records a layout table
``name → (offset, shape, dtype)`` and hands out read-only zero-copy views
over its own map (:meth:`~SharedColumnStore.views`), which the model
registry wraps into the tenant's serving forest.  The segment's name is
unlinked as soon as the columns are written: nothing attaches by name, and
POSIX keeps an unlinked segment's pages for as long as the map lives.  A
``weakref.finalize`` closes the map exactly once, on
:meth:`~SharedColumnStore.dispose` or when the store is collected.

No resource tracker: the stdlib ``SharedMemory`` registers every create and
every attach with ``multiprocessing.resource_tracker`` on POSIX, and
unregisters on unlink; each call starts the tracker, a separate interpreter
process, if it is not running.  The tracker exists to unlink names a crash
leaks, but a segment's name here lives only while its store writes the
columns, so there is nothing for it to do.  Every create, attach and unlink
in this module therefore runs inside :func:`_untracked`, which suppresses
both calls — one code path for Python 3.10–3.13 (reprolint RL003 keeps it
that way).

:func:`segment_exists` probes whether a name still resolves (the leak
assertions of the tests and the churn benchmark), and
:func:`memory_profile` reads this process's RSS split from ``/proc``.
"""

from __future__ import annotations

import secrets
import threading
import weakref
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

__all__ = ["SharedColumnStore", "memory_profile", "segment_exists"]

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
    the duration of the call means the serving stack never starts one.  The
    patch is process-wide while it lasts, so another thread's tracker call
    inside that window, one shm system call long, is dropped too.
    """
    with _TRACKER_LOCK:
        register, unregister = resource_tracker.register, resource_tracker.unregister
        resource_tracker.register = resource_tracker.unregister = _ignore
        try:
            yield
        finally:
            resource_tracker.register, resource_tracker.unregister = register, unregister


def _unlink(shm: shared_memory.SharedMemory) -> None:
    """Remove a segment's name, untracked; a name already gone is fine."""
    try:
        with _untracked():
            shm.unlink()
    except FileNotFoundError:
        pass


class SharedColumnStore:
    """A shared-memory segment holding a set of read-only numpy columns.

    Created by the model registry from a flat forest's columns.  The
    constructor creates the segment, writes the columns and unlinks the
    name, so a store's ``name`` never resolves once it exists (it stays as
    the segment's identity in the stats).  The creator reads :meth:`views`
    of its own map.  :meth:`dispose` (or garbage collection of the store,
    via ``weakref.finalize``) closes that map exactly once.
    """

    def __init__(self, columns: Mapping[str, np.ndarray], name: Optional[str] = None) -> None:
        layout, total = _plan_layout(columns)
        if name is None:
            # Short random suffix: segment names are a global OS namespace.
            name = f"repro-forest-{secrets.token_hex(6)}"
        with _untracked():
            self._shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        try:
            buffer = self._shm.buf
            for column_name, (offset, shape, dtype_str) in layout.items():
                source = np.ascontiguousarray(columns[column_name])
                view = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=buffer, offset=offset)
                view[...] = source
        finally:
            # Only this map reads the segment: the name goes once it is
            # written (or has failed to be), so no crash can leak it.
            _unlink(self._shm)
        self.name = self._shm.name
        self.layout = layout
        self.size = total
        self._finalizer = weakref.finalize(self, _close_segment, self._shm)

    def views(self) -> Dict[str, np.ndarray]:
        """Read-only zero-copy views of every column over the creator's map."""
        buffer = self._shm.buf
        if buffer is None:  # np.ndarray(buffer=None) would hand out fresh, unrelated memory
            raise ValueError(f"shared memory segment {self.name!r} is no longer mapped here")
        columns: Dict[str, np.ndarray] = {}
        for column_name, (offset, shape, dtype_str) in self.layout.items():
            view = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=buffer, offset=offset)
            view.flags.writeable = False
            columns[column_name] = view
        return columns

    def dispose(self) -> None:
        """Close the creator's map (idempotent)."""
        self._finalizer()


def _close_segment(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:
        # Live views in this process keep the mapping alive; it goes when
        # they do.
        pass
    except Exception:
        pass


def segment_exists(name: str) -> bool:
    """Whether a shared-memory segment with this name is still linked.

    Probe for leak assertions: once a store exists, its segment's name must
    no longer resolve.  The probe attaches untracked and closes
    immediately, so it neither adopts nor extends the segment's lifetime.
    """
    try:
        with _untracked():
            shm = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return False
    shm.close()
    return True


def memory_profile() -> Dict[str, float]:
    """Current process RSS split into shared and private pages (kilobytes).

    Reads ``/proc/self/smaps_rollup`` (Linux).  ``shared_kb`` counts pages
    another process maps too, ``private_kb`` the pages only this process
    maps.  Returns zeros on platforms without ``/proc``.
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

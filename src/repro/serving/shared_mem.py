"""Column store: a tenant's flat forest columns in one anonymous shared mapping.

The flat forest (:mod:`repro.core.flat`) is a set of read-only numpy columns.
:class:`SharedColumnStore` packs a ``name → array`` mapping into one
anonymous ``MAP_SHARED`` mapping (64-byte-aligned members), records a layout
table ``name → (offset, shape, dtype)`` and hands out read-only zero-copy
views over it (:meth:`~SharedColumnStore.views`), which the model registry
wraps into the tenant's serving forest.  The mapping has no name: nothing
else attaches to it, and its pages (shmem, like a POSIX segment's) die with
the process, so no crash can leak them.  A ``weakref.finalize`` closes the
map exactly once, on :meth:`~SharedColumnStore.dispose` or when the store is
collected; while a view is alive the map refuses to close, and it is
unmapped when the last view goes instead.

:func:`memory_profile` reads this process's shmem pages from ``/proc``
(the churn benchmark's bounded-memory and release checks).
"""

from __future__ import annotations

import mmap
import weakref
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

__all__ = ["SharedColumnStore", "memory_profile"]

#: Byte alignment of member arrays inside the mapping; cache-line friendly
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


class SharedColumnStore:
    """An anonymous shared mapping holding a set of read-only numpy columns.

    Created by the model registry from a flat forest's columns: the
    constructor maps ``size`` bytes and copies the columns in.  :meth:`views`
    reads them in place.  :meth:`dispose` (or garbage collection of the
    store, via ``weakref.finalize``) closes the map exactly once.
    """

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        layout, total = _plan_layout(columns)
        mapping = mmap.mmap(-1, total)
        self._map: Optional[mmap.mmap] = mapping
        self.layout = layout
        self.size = total
        for column_name, column in self._columns().items():
            column[...] = columns[column_name]
        self._finalizer = weakref.finalize(self, _close_map, mapping)

    def _columns(self) -> Dict[str, np.ndarray]:
        if self._map is None:
            raise ValueError("the column store is disposed")
        # Every column is a view of one np.frombuffer array, which keeps the
        # mapping's buffer exported while any column (or slice of one) lives,
        # so the map cannot close under a reader.
        buffer = np.frombuffer(self._map, dtype=np.uint8)
        return {
            column_name: np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=buffer, offset=offset)
            for column_name, (offset, shape, dtype_str) in self.layout.items()
        }

    def views(self) -> Dict[str, np.ndarray]:
        """Read-only zero-copy views of every column; ``ValueError`` once disposed."""
        columns = self._columns()
        for view in columns.values():
            view.flags.writeable = False
        return columns

    def dispose(self) -> None:
        """Close the map now, or when the last live view goes (idempotent)."""
        self._map = None
        self._finalizer()


def _close_map(mapping: mmap.mmap) -> None:
    try:
        mapping.close()
    except BufferError:
        # Live views keep the mapping; it is unmapped when the last one goes.
        pass


def memory_profile() -> Dict[str, float]:
    """This process's shmem pages in kilobytes (``shmem_kb``).

    Every column store's mapping lands here.  Reads ``Pss_Shmem`` from
    ``/proc/self/smaps_rollup``, or ``RssShmem`` from ``/proc/self/status``
    on kernels whose rollup lacks it (Linux); ``0.0`` without ``/proc``.
    """
    sources = (("/proc/self/smaps_rollup", "Pss_Shmem:"), ("/proc/self/status", "RssShmem:"))
    for path, key in sources:
        try:
            with open(path, "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith(key):
                        return {"shmem_kb": float(line.split()[1])}
        except OSError:
            continue
    return {"shmem_kb": 0.0}

"""Zero-copy trace sharing across sweep workers via POSIX shared memory.

A traced application produces one :class:`~repro.tracer.columns.TraceColumns`
that every characterization worker needs read-only.  Pickling it into
each worker copies the whole trace per process; at millions of events
that serialization dominates the sweep.  Instead, the parent publishes
the columns once into a ``multiprocessing.shared_memory`` segment and
ships only a tiny picklable :class:`SharedColumns` handle; workers
attach and get zero-copy ``ndarray`` views straight over the shared
buffer.

Segment layout (version 1): the packed ``.trc`` column encoding without
the file framing -- every ``INT_COLUMNS`` blob (``<i8``), then every
``FLOAT_COLUMNS`` blob (``<f8``), back to back.  The op table and row
count ride in the handle.

Lifetime: the creating process owns the segment and must call
:func:`release` (or :func:`release_all`) when the sweep is done;
:mod:`repro.core.sweep` does this around its parallel path.  Attached
views keep the segment mapped via a module registry, so a worker's
arrays stay valid for the worker's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory as _shm_mod

import numpy as np

from .columns import FLOAT_COLUMNS, INT_COLUMNS, TraceColumns, _float_blob, \
    _int_blob

_NCOLS = len(INT_COLUMNS) + len(FLOAT_COLUMNS)


@dataclass(frozen=True)
class SharedColumns:
    """Picklable handle to a trace published in shared memory."""

    shm_name: str
    n: int
    op_table: tuple[str, ...]

    @property
    def nbytes(self) -> int:
        return 8 * self.n * _NCOLS


#: Segments this process created (owner) or attached (borrower); keeping
#: the SharedMemory object referenced keeps the mapping -- and any numpy
#: views over it -- alive.
_owned: dict[str, object] = {}
_attached: dict[str, object] = {}


def share_columns(cols: TraceColumns) -> SharedColumns:
    """Publish a trace into a fresh shared-memory segment; returns the handle.

    The segment stays alive until :func:`release`/:func:`release_all`
    (or process exit).
    """
    n = len(cols)
    seg = _shm_mod.SharedMemory(create=True, size=max(1, 8 * n * _NCOLS))
    pos = 0
    for name in INT_COLUMNS:
        blob = _int_blob(getattr(cols, name))
        seg.buf[pos:pos + len(blob)] = blob
        pos += len(blob)
    for name in FLOAT_COLUMNS:
        blob = _float_blob(getattr(cols, name))
        seg.buf[pos:pos + len(blob)] = blob
        pos += len(blob)
    _owned[seg.name] = seg
    return SharedColumns(shm_name=seg.name, n=n,
                         op_table=tuple(cols.op_table))


def attach_columns(handle: SharedColumns) -> TraceColumns:
    """Materialize a TraceColumns from a published handle.

    Zero-copy: the columns are ``ndarray`` views over the shared buffer
    (read them, don't write them).
    """
    seg = _attached.get(handle.shm_name) or _owned.get(handle.shm_name)
    if seg is None:
        seg = _shm_mod.SharedMemory(name=handle.shm_name)
        _unregister_attachment(seg)
        _attached[handle.shm_name] = seg  # views need the mapping alive
    n = handle.n
    kwargs = {}
    for i, name in enumerate(INT_COLUMNS):
        kwargs[name] = np.frombuffer(seg.buf, dtype="<i8", count=n,
                                     offset=8 * n * i)
    for j, name in enumerate(FLOAT_COLUMNS):
        kwargs[name] = np.frombuffer(seg.buf, dtype="<f8", count=n,
                                     offset=8 * n * (len(INT_COLUMNS) + j))
    return TraceColumns(op_table=list(handle.op_table), **kwargs)


def _unregister_attachment(seg) -> None:
    """Keep the resource tracker honest on attach-only segments.

    On Python < 3.13 attaching registers the segment with the
    *attaching* process's resource tracker, which then unlinks it when
    that process exits -- yanking the mapping out from under the owner
    (bpo-39959).  Only the creator should unlink.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:
        pass


def _close_or_abandon(seg) -> bool:
    """Close a mapping; with live numpy views, leave it to process exit.

    A memory-mapped buffer cannot be closed while exported views exist
    (``BufferError``).  In that case the mapping is simply abandoned --
    the views stay valid, the OS reclaims it at exit -- and ``close`` is
    neutered so the object's ``__del__`` does not raise at shutdown.
    """
    try:
        seg.close()
        return True
    except BufferError:
        seg.close = lambda: None
        return False


def release(handle: SharedColumns) -> None:
    """Close (and, if this process owns it, unlink) one segment."""
    seg = _attached.pop(handle.shm_name, None)
    if seg is not None:
        _close_or_abandon(seg)
    seg = _owned.pop(handle.shm_name, None)
    if seg is not None:
        _close_or_abandon(seg)
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def release_all() -> None:
    """Release every segment this process owns or has attached."""
    for registry in (_attached, _owned):
        for name in list(registry):
            release(SharedColumns(shm_name=name, n=0, op_table=()))

"""Shared-memory transport for large FlowTable pool results.

A day table returned from a worker normally travels back over the pool's
result pipe as a pickle. For large tables that means several full copies
of the payload (pickle stream in the worker, pipe buffers, unpickle in
the parent). This module gives the result plane a second lane: the
worker writes the table's :data:`~repro.flows.records.RECORD_DTYPE`
structured records into a :class:`multiprocessing.shared_memory.SharedMemory`
block and ships only a tiny :class:`ShmTableHandle` over the pipe; the
parent attaches, copies the records out once, and unlinks the block.

Lifetime management is deliberately conservative: the worker closes its
mapping as soon as the block is filled, and the parent both closes and
unlinks after reading, so a completed transfer leaves nothing behind.
Both sides unregister from the ``resource_tracker`` (CPython registers
on create *and* attach, which would otherwise double-count and warn).
If the parent dies between create and unwrap the segment leaks until
reboot — an accepted cost, documented in the tutorial.

Small tables are not worth the syscall round-trip, so
:func:`wrap_table` only engages above a byte threshold
(:data:`DEFAULT_THRESHOLD_BYTES`, tunable via
:func:`set_transport_threshold` or the runner's ``--shm-threshold``).
Everything degrades to plain pickling when shared memory is unavailable
(platform without ``/dev/shm``, permission failures) or the table's AS
numbers do not fit the packed i32 fields.

The split between lanes is observable: ``pool.pipe_bytes`` counts
payload bytes that travelled as pickles, ``shm.bytes``/``shm.blocks``
count the shared-memory lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.flows.records import RECORD_DTYPE, FlowTable
from repro.obs.metrics import metrics

try:  # pragma: no cover - exercised indirectly via shm_available()
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - platforms without _multiprocessing
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]

__all__ = [
    "DEFAULT_THRESHOLD_BYTES",
    "ShmTableHandle",
    "shm_available",
    "transport_threshold",
    "set_transport_threshold",
    "wrap_table",
    "unwrap_table",
]

#: Below this many payload bytes plain pickling wins (one pipe write beats
#: two syscalls plus a mmap for small tables). 1 MiB ~= 21k records.
DEFAULT_THRESHOLD_BYTES = 1 << 20

_threshold_bytes = DEFAULT_THRESHOLD_BYTES


def shm_available() -> bool:
    """True if this platform supports ``multiprocessing.shared_memory``."""
    return shared_memory is not None


def transport_threshold() -> int:
    """Current shm engagement threshold in payload bytes (negative = off)."""
    return _threshold_bytes


def set_transport_threshold(nbytes: int | None) -> int:
    """Set the shm threshold; returns the previous value.

    ``None`` restores :data:`DEFAULT_THRESHOLD_BYTES`; a negative value
    disables the shared-memory lane entirely.
    """
    global _threshold_bytes
    previous = _threshold_bytes
    _threshold_bytes = DEFAULT_THRESHOLD_BYTES if nbytes is None else int(nbytes)
    return previous


@dataclass(frozen=True)
class ShmTableHandle:
    """Pipe-sized stand-in for a FlowTable parked in a shared-memory block."""

    name: str
    n_records: int


def _untrack(block) -> None:
    # CPython's resource_tracker registers a segment on create and again
    # on attach; we manage the lifetime explicitly (worker creates,
    # parent unlinks), so both registrations must be withdrawn or the
    # tracker warns about "leaked" segments at interpreter exit.
    if resource_tracker is None:  # pragma: no cover
        return
    try:
        resource_tracker.unregister(getattr(block, "_name", block.name), "shared_memory")
    except Exception:  # pragma: no cover - tracker API drift
        pass


#: Result containers whose items :func:`wrap_table`/:func:`unwrap_table`
#: visit (exact types only: subclasses such as named tuples pass through).
_CONTAINERS = (list, tuple, dict)


def _map_container(obj: list | tuple | dict, fn):
    if type(obj) is dict:
        return {key: fn(value) for key, value in obj.items()}
    return type(obj)(fn(item) for item in obj)


def wrap_table(table: object, threshold: int | None = None):
    """Park ``table`` in shared memory if it is big enough; else passthrough.

    Called in the *worker* on a day result before it is pickled back.
    Returns either the object unchanged or a :class:`ShmTableHandle`; a
    plain list, tuple or dict result (a fused day task's per-vantage
    values) comes back as a copy with each table inside wrapped. Never
    raises for transport reasons: any failure to provision the block
    falls back to returning the table itself.
    """
    if type(table) in _CONTAINERS:
        return _map_container(table, partial(wrap_table, threshold=threshold))
    if threshold is None:
        threshold = _threshold_bytes
    if (
        shared_memory is None
        or threshold < 0
        or not isinstance(table, FlowTable)
        or len(table) == 0
    ):
        return table
    nbytes = len(table) * RECORD_DTYPE.itemsize
    if nbytes < threshold:
        return table
    try:
        records = table.to_structured()
    except ValueError:
        # Out-of-range AS numbers: the packed layout would clamp, so the
        # exact per-column pickle path carries this (rare) table.
        return table
    try:
        block = shared_memory.SharedMemory(create=True, size=nbytes)
    except OSError:
        return table
    try:
        np.ndarray(len(records), dtype=RECORD_DTYPE, buffer=block.buf)[:] = records
        handle = ShmTableHandle(name=block.name, n_records=len(records))
    except Exception:
        try:
            block.close()
            block.unlink()
        except OSError:  # pragma: no cover
            pass
        return table
    _untrack(block)
    block.close()
    return handle


def unwrap_table(obj: object):
    """Resolve a pool result: reclaim shm handles, count pipe traffic.

    Called in the *parent* on each raw pool result. For a handle, the
    records are copied out of the block exactly once and the block is
    unlinked; for a plain FlowTable the payload bytes are credited to
    ``pool.pipe_bytes``. A plain list, tuple or dict is resolved item by
    item; any other object passes through untouched.
    """
    if type(obj) in _CONTAINERS:
        return _map_container(obj, unwrap_table)
    reg = metrics()
    if not isinstance(obj, ShmTableHandle):
        if isinstance(obj, FlowTable):
            reg.inc("pool.pipe_bytes", len(obj) * RECORD_DTYPE.itemsize)
        return obj
    if shared_memory is None:  # pragma: no cover - handle can't exist then
        raise RuntimeError("received a ShmTableHandle but shared memory is unavailable")
    block = shared_memory.SharedMemory(name=obj.name)
    # No explicit untrack here: unlink() below withdraws the registration
    # this attach just made, and the worker's create-side registration was
    # withdrawn in wrap_table — one registration, one withdrawal, each side.
    try:
        records = np.ndarray(obj.n_records, dtype=RECORD_DTYPE, buffer=block.buf).copy()
    finally:
        block.close()
        try:
            block.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass
    reg.inc("shm.blocks")
    reg.inc("shm.bytes", records.nbytes)
    return FlowTable.from_structured(records)

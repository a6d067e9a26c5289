"""Shared-memory transport primitives for the replica tier.

Two building blocks, both thin disciplined wrappers over
``multiprocessing.shared_memory.SharedMemory``:

* :class:`ShmArena` — a slotted float64 arena.  The router writes a
  request chunk into a free slot as a plain NumPy view (one memcpy, no
  pickling); the replica process attaches the same segment by name and
  reads the slot zero-copy.  Only *slot indices and shapes* travel over
  the control :class:`~multiprocessing.connection.Connection` — array
  payloads never do.
* :class:`ShmStatsBlock` — a tiny per-replica table of float64 fields
  (heartbeat, image/batch/error counters, busy seconds, sensitive-row
  census).  Each replica writes **only its own row** (single-writer per
  row, so no cross-process lock is needed — float64 stores on aligned
  memory are atomic on every platform CPython runs on); the router reads
  all rows for ``/healthz`` and ``/metrics``.

Lifecycle discipline (the THR204 invariant): every ``SharedMemory``
ends up owned by a :class:`ShmSegment`, which pairs ``close()`` (unmap
this process's view) with ``unlink()`` (destroy the segment — creator
only) and supports ``with``.  Replica processes only ever *attach*
(``name=...``) and only ever ``close()``; the creating router process
is the sole unlinker.  This stays tracker-clean because replicas are
``multiprocessing`` spawn children and therefore share the router's
:mod:`multiprocessing.resource_tracker`: the child's attach-register is
an idempotent re-add of a name the creator already registered, and the
creator's ``unlink()`` removes it exactly once.  (Unregistering on
attach — the usual bpo-39959 workaround for *unrelated* attacher
processes — would be wrong here: with a shared tracker it deletes the
creator's entry and the later ``unlink`` double-unregisters.)
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

_FLOAT = np.float64
_ITEMSIZE = np.dtype(_FLOAT).itemsize


class ShmSegment:
    """Owns one ``SharedMemory`` segment; pairs create/attach with cleanup.

    ``close()`` is idempotent and safe to call from ``finally`` blocks;
    ``unlink()`` must be called exactly once, by the creator.
    """

    def __init__(self, nbytes: int | None = None, name: str | None = None):
        if (nbytes is None) == (name is None):
            raise ValueError("pass exactly one of nbytes (create) or name (attach)")
        self.owner = name is None
        if self.owner:
            self._shm = shared_memory.SharedMemory(create=True, size=int(nbytes))
        else:
            self._shm = shared_memory.SharedMemory(name=name)
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def buf(self) -> memoryview:
        return self._shm.buf

    def close(self) -> None:
        """Release this process's mapping (idempotent)."""
        if not self._closed:
            self._closed = True
            self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only; call after ``close``)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already destroyed
            pass

    def __enter__(self) -> "ShmSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self.owner:
            self.unlink()


class ShmArena:
    """A slotted float64 array arena in one shared-memory segment.

    ``slots`` fixed-size slots of ``slot_floats`` float64 each.  Slot
    *allocation* is the caller's job (the router keeps a per-replica
    free list); the arena only does bounds-checked views and writes.
    """

    def __init__(
        self, slots: int, slot_floats: int, name: str | None = None
    ):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if slot_floats < 1:
            raise ValueError("slot_floats must be >= 1")
        self.slots = slots
        self.slot_floats = slot_floats
        nbytes = slots * slot_floats * _ITEMSIZE
        self._segment = (
            ShmSegment(nbytes=nbytes) if name is None else ShmSegment(name=name)
        )
        self._array = np.ndarray(
            (slots, slot_floats), dtype=_FLOAT, buffer=self._segment.buf
        )

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def owner(self) -> bool:
        return self._segment.owner

    def view(self, slot: int, shape: tuple) -> np.ndarray:
        """A zero-copy ndarray view of ``shape`` over slot ``slot``."""
        n = int(np.prod(shape, dtype=np.int64))
        if not (0 <= slot < self.slots):
            raise IndexError(f"slot {slot} out of range [0, {self.slots})")
        if n > self.slot_floats:
            raise ValueError(
                f"shape {tuple(shape)} needs {n} floats; slot holds "
                f"{self.slot_floats}"
            )
        return self._array[slot, :n].reshape(shape)

    def write(self, slot: int, arr: np.ndarray) -> tuple:
        """Copy ``arr`` (as float64) into ``slot``; returns its shape."""
        src = np.ascontiguousarray(arr, dtype=_FLOAT)
        self.view(slot, src.shape)[...] = src
        return src.shape

    def read(self, slot: int, shape: tuple) -> np.ndarray:
        """An owning copy of the slot contents (detached from the arena)."""
        return self.view(slot, shape).copy()

    def close(self) -> None:
        self._segment.close()

    def unlink(self) -> None:
        self._segment.unlink()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self.owner:
            self.unlink()


#: Per-replica stats fields, one float64 each, in row order.  Counters
#: are cumulative over the replica's lifetime (reset on respawn — the
#: router folds finished generations into its own totals).
STATS_FIELDS = (
    "pid",
    "alive",              #: 1.0 while the replica loop runs, 0.0 after drain
    "heartbeat",          #: time.time() of the last loop iteration
    "images",
    "batches",
    "errors",
    "busy_seconds",
    "sens_rows_total",    #: sensitive-row census: rows seen ...
    "sens_rows_computed", #: ... vs rows actually computed (sparse path)
)

_FIELD_INDEX = {f: i for i, f in enumerate(STATS_FIELDS)}


class ShmStatsBlock:
    """``replicas x len(STATS_FIELDS)`` float64 table in shared memory.

    Single-writer-per-row: replica *i* (and only replica *i*) writes row
    *i*; the router reads every row.  No locks — each field is one
    aligned float64 store, and the consumers tolerate torn *rows* (a
    heartbeat from one iteration with counters from the next is fine).
    """

    def __init__(self, replicas: int, name: str | None = None):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        nbytes = replicas * len(STATS_FIELDS) * _ITEMSIZE
        self._segment = (
            ShmSegment(nbytes=nbytes) if name is None else ShmSegment(name=name)
        )
        self._table = np.ndarray(
            (replicas, len(STATS_FIELDS)), dtype=_FLOAT, buffer=self._segment.buf
        )
        if self._segment.owner:
            self._table[...] = 0.0

    @property
    def name(self) -> str:
        return self._segment.name

    def row(self, replica: int) -> np.ndarray:
        """The live (shared) row for ``replica`` — writer-side view."""
        return self._table[replica]

    def set(self, replica: int, field: str, value: float) -> None:
        self._table[replica, _FIELD_INDEX[field]] = value

    def get(self, replica: int, field: str) -> float:
        return float(self._table[replica, _FIELD_INDEX[field]])

    def add(self, replica: int, field: str, delta: float) -> None:
        """Single-writer increment (not atomic across *processes*; each
        row has exactly one writer so this is safe by construction)."""
        self._table[replica, _FIELD_INDEX[field]] += delta

    def snapshot(self, replica: int | None = None) -> list[dict] | dict:
        """Detached dict copies: one row, or all rows in replica order."""
        if replica is not None:
            row = self._table[replica].copy()
            return {f: float(row[i]) for i, f in enumerate(STATS_FIELDS)}
        rows = self._table.copy()
        return [
            {f: float(rows[r, i]) for i, f in enumerate(STATS_FIELDS)}
            for r in range(self.replicas)
        ]

    def close(self) -> None:
        self._segment.close()

    def unlink(self) -> None:
        self._segment.unlink()

    def __enter__(self) -> "ShmStatsBlock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self._segment.owner:
            self.unlink()


__all__ = [
    "ShmSegment",
    "ShmArena",
    "ShmStatsBlock",
    "STATS_FIELDS",
]

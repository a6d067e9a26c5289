"""The cluster router: deterministic sharding, least-queued placement.

:class:`ClusterPool` is the process-parallel sibling of
:class:`repro.serve.worker.WorkerPool`: the front end submits NumPy
batches and gets back a future of the stacked logits, but the work runs
on ``N`` replica *processes* (see :mod:`repro.cluster.worker`) instead
of GIL-bound threads.

Correctness contract — **bit-exact scaling**
    ODQ computes quantization ranges per inference batch, so *batch
    composition is part of the numerical contract*: the same image in a
    different batch yields (deterministically) different low-order
    bits.  The router therefore cuts every submission into fixed-size
    chunks of at most ``config.max_batch_size`` images — boundaries
    depend only on the submission itself, never on replica count, load,
    or timing — and replicas never coalesce chunks.  Any replica
    produces byte-identical logits for a given chunk (sessions rebuild
    deterministically from the same config), so ``--replicas 8`` equals
    ``--replicas 1`` byte for byte.  ``repro bench-serve`` gates on it.

Scheduling — **fewest queued images**
    *Which* replica runs a chunk is load-dependent: each chunk, in
    submission order, goes to the ``up`` replica with the fewest queued
    plus in-flight images, the lowest replica id on ties.  Any replica
    gives the same bytes for a chunk, so placement only balances load.

Fault tolerance
    Each replica has exactly one router I/O thread that owns its control
    pipe.  When a replica dies, the thread re-queues that generation's
    in-flight chunks (the request arrays are still owned by the router,
    so nothing is lost), the supervisor respawns the process with
    bounded backoff, and the new generation re-runs them — identical
    chunks, identical bytes.  A replica that exhausts its respawn budget
    is marked failed and its queue is redistributed (or failed, if it
    was the last one).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.shm import STATS_FIELDS
from repro.cluster.supervisor import ReplicaHandle, Supervisor, slot_floats_for
from repro.obs import trace
from repro.obs.log import get_logger
from repro.serve.config import ServeConfig
from repro.serve.metrics import MetricsRegistry

_log = get_logger("repro.cluster.router")

#: Transport slots per replica: bounds how many chunks can be in flight
#: to one replica at once (back-pressure: further chunks queue in the
#: router, where they can still be re-placed on crash or drain).
DEFAULT_SLOTS = 4

#: I/O thread poll period on the control pipe (also the latency floor
#: for noticing new queued work while idle).
IO_POLL_SECONDS = 0.02

#: Counter fields mirrored from the shared stats block into /metrics.
_COUNTER_FIELDS = ("images", "batches", "errors")


class ClusterClosed(RuntimeError):
    """Raised into futures whose work could not complete at shutdown."""


class ReplicaError(RuntimeError):
    """An engine-side failure, confined to one submission."""


class _Submission:
    """One ``submit()`` call: output assembly + completion counting."""

    def __init__(self, total_images: int, chunk_count: int):
        self.total = total_images
        self.future: Future = Future()
        self._out: np.ndarray | None = None
        self._remaining = chunk_count
        self._failed = False
        self._lock = threading.Lock()

    def complete_chunk(self, offset: int, rows: np.ndarray) -> None:
        with self._lock:
            if self._failed:
                return
            if self._out is None:
                self._out = np.empty((self.total, rows.shape[1]), dtype=rows.dtype)
            self._out[offset : offset + rows.shape[0]] = rows
            self._remaining -= 1
            done = self._remaining == 0
            out = self._out
        if done and not self.future.cancelled():
            self.future.set_result(out)

    def fail(self, exc: BaseException) -> None:
        with self._lock:
            if self._failed:
                return
            self._failed = True
        if not self.future.cancelled():
            self.future.set_exception(exc)


@dataclass
class _Chunk:
    """One fixed-boundary slice of a submission, placed on one replica."""

    submission: _Submission
    arr: np.ndarray      #: (n, C, H, W) float64, router-owned
    offset: int          #: row offset inside the submission output
    #: Request trace context; rides the chunk through requeues so the
    #: trace id survives crash-respawn re-dispatch.
    ctx: "trace.TraceContext | None" = None

    @property
    def images(self) -> int:
        return self.arr.shape[0]


@dataclass
class _CensusProbe:
    """An in-band control request answered by the replica."""

    future: Future = field(default_factory=Future)


@dataclass
class _ReplicaIO:
    """Router-side state for one replica slot (lock-guarded)."""

    replica_id: int
    slots: int
    lock: threading.Lock = field(default_factory=threading.Lock)
    queue: deque = field(default_factory=deque)       #: _Chunk | _CensusProbe
    inflight: dict = field(default_factory=dict)      #: seq -> (_Chunk, slot)
    probes: deque = field(default_factory=deque)      #: outstanding _CensusProbe
    free_slots: list = field(default_factory=list)
    seq: int = 0
    state: str = "up"            #: up | draining | drained | failed
    thread: threading.Thread | None = None

    def __post_init__(self):
        self.free_slots = list(range(self.slots))

    def pending_images(self) -> int:
        """Images queued + in flight (caller holds no lock)."""
        with self.lock:
            queued = sum(c.images for c in self.queue if isinstance(c, _Chunk))
            return queued + sum(c.images for c, _slot in self.inflight.values())


class ClusterPool:
    """N replica processes behind a submit/future facade.

    Parameters
    ----------
    config:
        Serving configuration; ``config.replicas`` is the replica count
        and ``config.max_batch_size`` the deterministic chunk size.
    input_shape / num_classes:
        Per-image array geometry, used to size the shared-memory slots.
    metrics:
        Optional :class:`~repro.serve.metrics.MetricsRegistry`;
        :meth:`refresh_metrics` publishes per-replica labeled counters
        and busy-fraction gauges into it.
    collector:
        Optional :class:`~repro.obs.collector.TelemetryCollector`;
        replica ``("telemetry", payload)`` messages are ingested into it
        by the I/O threads as they arrive.
    """

    def __init__(
        self,
        config: ServeConfig,
        input_shape: tuple,
        num_classes: int,
        metrics: MetricsRegistry | None = None,
        collector=None,
        slots: int = DEFAULT_SLOTS,
        backoff_base: float = 0.25,
        backoff_cap: float = 4.0,
        max_respawns: int = 8,
    ):
        self.config = config
        self.replicas = config.replicas
        self.chunk_images = config.max_batch_size
        self.input_shape = tuple(input_shape)
        self.num_classes = int(num_classes)
        self.metrics = metrics
        self.collector = collector
        self.slots = slots
        self.supervisor = Supervisor(
            config,
            replicas=self.replicas,
            slots=slots,
            req_slot_floats=slot_floats_for(self.input_shape, self.chunk_images),
            res_slot_floats=self.chunk_images * self.num_classes,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            max_respawns=max_respawns,
            on_death=self._on_replica_death,
            on_failed=self._on_replica_failed,
        )
        self._replicas: dict[int, _ReplicaIO] = {
            rid: _ReplicaIO(replica_id=rid, slots=slots)
            for rid in range(self.replicas)
        }
        self._state_lock = threading.Lock()
        self._closed = False
        self._started = False
        self._started_at: float | None = None
        self.submitted = 0   #: submissions accepted
        self.dispatched = 0  #: chunks sent to replicas
        self.requeued = 0    #: chunks re-queued after a replica death
        # Metrics bookkeeping: totals folded in from dead generations,
        # last published cumulative values, last busy-fraction window.
        self._folded: dict[int, dict[str, float]] = {}
        self._published: dict[tuple, float] = {}
        self._busy_window: dict[int, tuple] = {}

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ClusterPool":
        if self._started:
            raise RuntimeError("cluster pool already started")
        self._started = True
        self._started_at = time.monotonic()
        self.supervisor.start()
        for rid, st in self._replicas.items():
            st.thread = threading.Thread(
                target=self._io_loop, args=(rid,), name=f"cluster-io-{rid}",
                daemon=True,
            )
            st.thread.start()
        return self

    def shutdown(self, timeout: float = 10.0) -> None:
        """Drain every replica, stop the processes, release the arenas."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        for st in self._replicas.values():
            if st.thread is not None:
                st.thread.join(timeout)
        self.supervisor.stop(timeout=max(1.0, timeout / 2))
        # Anything still queued (a replica failed mid-shutdown) fails
        # loudly rather than dangling.
        exc = ClusterClosed("cluster pool shut down with work still queued")
        for st in self._replicas.values():
            with st.lock:
                leftovers = [c for c in st.queue if isinstance(c, _Chunk)]
                leftovers += [c for c, _slot in st.inflight.values()]
                probes = [p for p in st.queue if isinstance(p, _CensusProbe)]
                probes += list(st.probes)
                st.queue.clear()
                st.inflight.clear()
                st.probes.clear()
            for chunk in leftovers:
                chunk.submission.fail(exc)
            for probe in probes:
                if not probe.future.done():
                    probe.future.set_exception(exc)

    def __enter__(self) -> "ClusterPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def closed(self) -> bool:
        with self._state_lock:
            return self._closed

    def wait_ready(self, timeout: float = 60.0) -> bool:
        """Block until every replica's engine is built and serving.

        Readiness is the replica's ``alive`` flag in the shared stats
        block, set right before it starts consuming requests.  Returns
        False on timeout (some replica still building or crash-looping).
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            stats = self.supervisor.stats
            if stats is not None and all(
                row["alive"] >= 1.0 for row in stats.snapshot()
            ):
                return True
            time.sleep(0.05)
        return False

    # -- submission ---------------------------------------------------------

    def submit(
        self, inputs: np.ndarray, ctx: "trace.TraceContext | None" = None
    ) -> Future:
        """Enqueue a batch; returns a Future of its ``(n, classes)`` logits.

        The batch is cut into deterministic chunks of at most
        ``config.max_batch_size`` images (see the module docstring for
        why boundaries must not depend on load), each placed on the
        replica with the fewest queued images.  ``ctx`` (the request's
        :class:`~repro.obs.trace.TraceContext`) rides along on every
        chunk so replica-side spans parent under the request.
        """
        arr = np.ascontiguousarray(np.asarray(inputs, dtype=np.float64))
        if arr.ndim == 3:
            arr = arr[None]
        if arr.ndim != 4 or arr.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected (n, {', '.join(map(str, self.input_shape))}) input, "
                f"got shape {arr.shape}"
            )
        if arr.shape[0] == 0:
            # No chunk would ever complete the submission's future.
            raise ValueError("empty batch: expected at least one image")
        if not np.isfinite(arr).all():
            # Refused here, the bad request cannot fail its chunk-mates.
            raise ValueError("inputs must be finite (got NaN or Inf)")
        if self.closed:
            raise ClusterClosed("cluster pool is shut down")

        n = arr.shape[0]
        offsets = list(range(0, n, self.chunk_images))
        submission = _Submission(n, len(offsets))
        chunks = [
            _Chunk(
                submission=submission,
                arr=arr[o : o + self.chunk_images],
                offset=o,
                ctx=ctx,
            )
            for o in offsets
        ]
        targets = self._place(chunks)
        with self._state_lock:
            self.submitted += 1
        for chunk, rid in zip(chunks, targets):
            st = self._replicas[rid]
            with st.lock:
                st.queue.append(chunk)
        return submission.future

    def _placeable(self) -> list[int]:
        """Replicas that can accept new work.

        Router state ``up`` covers both healthy replicas and crashed
        ones the supervisor is respawning (their queue survives the
        generation change); draining/drained/failed replicas accept
        nothing new.
        """
        return [
            rid for rid, st in self._replicas.items() if st.state == "up"
        ]

    def _place(self, chunks: list[_Chunk]) -> list[int]:
        """Target replica per chunk: fewest queued + in-flight images.

        Chunks are placed in order onto the placeable replicas, each
        counted onto its target before the next is placed; ties go to
        the lowest replica id.
        """
        candidates = self._placeable()
        if not candidates:
            raise ClusterClosed("no live replicas")
        loads = {rid: self._replicas[rid].pending_images() for rid in candidates}
        targets = []
        for chunk in chunks:
            rid = min(candidates, key=lambda r: (loads[r], r))
            loads[rid] += chunk.images
            targets.append(rid)
        return targets

    def sensitive_ratio(self) -> float:
        """Cluster-wide census ratio: rows computed / rows seen (1.0 cold)."""
        stats = self.supervisor.stats
        if stats is None:
            return 1.0
        total = computed = 0.0
        for row in stats.snapshot():
            total += row["sens_rows_total"]
            computed += row["sens_rows_computed"]
        return computed / total if total > 0 else 1.0

    # -- the per-replica I/O thread -----------------------------------------

    def _io_loop(self, rid: int) -> None:
        st = self._replicas[rid]
        while True:
            handle = self.supervisor.handle(rid)
            try:
                self._pump(st, handle)
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                pass
            if st.state == "drained" or self.closed:
                return
            if not self._recover(st, handle):
                return

    def _pump(self, st: _ReplicaIO, handle: ReplicaHandle) -> None:
        """Drive one replica generation until its shutdown drain is done.

        Raises a pipe/EOF error when the replica died underneath us.
        """
        conn = handle.conn
        while True:
            if self.closed and st.state == "up":
                st.state = "draining"
            self._send_ready(st, conn)
            if st.state == "draining" and self._drain_idle(st):
                self._finish_drain(st, handle)
                return
            if conn.poll(IO_POLL_SECONDS):
                self._on_message(st, conn.recv())
            elif not handle.process.is_alive():
                raise EOFError(f"replica {st.replica_id} died")

    def _send_ready(self, st: _ReplicaIO, conn) -> None:
        while True:
            with st.lock:
                if not st.queue:
                    return
                item = st.queue[0]
                if isinstance(item, _CensusProbe):
                    st.queue.popleft()
                    st.probes.append(item)
                    probe = item
                    chunk = slot = None
                else:
                    if not st.free_slots or st.state not in ("up", "draining"):
                        return
                    st.queue.popleft()
                    slot = st.free_slots.pop()
                    st.seq += 1
                    seq = st.seq
                    st.inflight[seq] = (item, slot)
                    chunk, probe = item, None
            if probe is not None:
                conn.send(("census",))
                continue
            ctx = chunk.ctx
            if ctx is not None and trace.enabled():
                # Dispatch hop: span under the request's context, then
                # rebase the wire context onto this span so replica-side
                # spans parent under the dispatch instead of skipping it.
                with trace.get_tracer().activate(ctx), trace.span(
                    "cluster.dispatch",
                    replica=st.replica_id,
                    batch=chunk.images,
                ) as sp:
                    shape = self.supervisor.req_arenas[st.replica_id].write(
                        slot, chunk.arr
                    )
                    wire = ctx.rebased(
                        sp.span_id, trace.process_lane()
                    ).to_wire()
                    conn.send(("req", seq, slot, shape, wire))
            else:
                shape = self.supervisor.req_arenas[st.replica_id].write(
                    slot, chunk.arr
                )
                conn.send(("req", seq, slot, shape, None))
            with self._state_lock:
                self.dispatched += 1

    def _on_message(self, st: _ReplicaIO, msg: tuple) -> None:
        kind = msg[0]
        if kind == "res":
            _, seq, slot, shape = msg
            rows = self.supervisor.res_arenas[st.replica_id].read(
                slot, tuple(shape)
            )
            with st.lock:
                chunk, _slot = st.inflight.pop(seq)
                st.free_slots.append(slot)
            chunk.submission.complete_chunk(chunk.offset, rows)
        elif kind == "err":
            _, seq, message = msg
            with st.lock:
                entry = st.inflight.pop(seq, None)
                if entry is not None:
                    st.free_slots.append(entry[1])
            if entry is not None:
                entry[0].submission.fail(ReplicaError(message))
        elif kind == "census":
            _, densities, census = msg
            with st.lock:
                probe = st.probes.popleft() if st.probes else None
            if probe is not None and not probe.future.done():
                probe.future.set_result((densities, census))
        elif kind == "telemetry":
            if self.collector is not None:
                self.collector.ingest(f"replica-{st.replica_id}", msg[1])
        elif kind == "ready":
            _log.debug("replica_ready", replica=st.replica_id, pid=msg[2])
        # ("drained", ...) is consumed inside _finish_drain.

    def _drain_idle(self, st: _ReplicaIO) -> bool:
        with st.lock:
            return not st.queue and not st.inflight and not st.probes

    def _finish_drain(self, st: _ReplicaIO, handle: ReplicaHandle) -> None:
        """All work done: ask the replica to exit and wait for its ack."""
        self.supervisor.mark_draining(st.replica_id)
        conn = handle.conn
        try:
            conn.send(("drain",))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if conn.poll(0.05):
                    msg = conn.recv()
                    if msg[0] == "drained":
                        break
                    # The replica ships its final telemetry batch (and
                    # possibly late results) before the drained ack —
                    # route them instead of dropping them on the floor.
                    self._on_message(st, msg)
                elif not handle.process.is_alive():
                    break
        except (EOFError, BrokenPipeError, OSError):  # pragma: no cover
            pass
        handle.process.join(2.0)
        st.state = "drained"

    def _recover(self, st: _ReplicaIO, dead_handle: ReplicaHandle) -> bool:
        """After a crash: requeue this generation's work, await respawn.

        Returns True when a new generation is up (the I/O loop should
        continue), False when the replica is failed or shutdown began.
        """
        with st.lock:
            pending = [chunk for chunk, _slot in st.inflight.values()]
            st.inflight.clear()
            for chunk in reversed(pending):
                st.queue.appendleft(chunk)
            st.free_slots = list(range(st.slots))
            probes = list(st.probes)
            st.probes.clear()
        for probe in probes:
            if not probe.future.done():
                probe.future.set_exception(
                    ReplicaError(f"replica {st.replica_id} died mid-census")
                )
        if pending:
            with self._state_lock:
                self.requeued += len(pending)
            _log.warning(
                "chunks_requeued",
                replica=st.replica_id,
                chunks=len(pending),
            )
        while not self.closed:
            if st.state == "failed":
                self._redistribute(st)
                return False
            current = self.supervisor.handle(st.replica_id)
            if current is not dead_handle and current.alive:
                return True
            time.sleep(IO_POLL_SECONDS)
        return False

    def _redistribute(self, st: _ReplicaIO) -> None:
        """Move a failed replica's queue to survivors (or fail it).

        The replica's state is already ``failed``, so :meth:`_place`
        only sees the survivors.
        """
        with st.lock:
            chunks = [c for c in st.queue if isinstance(c, _Chunk)]
            st.queue.clear()
        survivors = self._placeable()
        if not survivors:
            exc = ClusterClosed(
                f"replica {st.replica_id} failed with no survivors"
            )
            for chunk in chunks:
                chunk.submission.fail(exc)
            return
        for chunk, rid in zip(chunks, self._place(chunks)):
            target = self._replicas[rid]
            with target.lock:
                target.queue.append(chunk)
        if chunks:
            _log.warning(
                "chunks_redistributed",
                from_replica=st.replica_id,
                chunks=len(chunks),
                survivors=survivors,
            )

    # -- supervisor callbacks (monitor thread) -------------------------------

    def _on_replica_death(self, rid: int) -> None:
        """Fold the dead generation's counters before the row resets."""
        stats = self.supervisor.stats
        if stats is None:
            return
        snap = stats.snapshot(rid)
        folded = self._folded.setdefault(rid, dict.fromkeys(STATS_FIELDS, 0.0))
        for f in (*_COUNTER_FIELDS, "busy_seconds"):
            folded[f] += snap[f]

    def _on_replica_failed(self, rid: int) -> None:
        self._replicas[rid].state = "failed"

    # -- introspection -------------------------------------------------------

    @property
    def alive_replicas(self) -> int:
        return sum(1 for h in self.supervisor.handles() if h.alive)

    def liveness(self) -> list[dict]:
        """Supervisor liveness augmented with router-side queue state."""
        rows = self.supervisor.liveness()
        for row in rows:
            st = self._replicas[row["replica"]]
            with st.lock:
                row["queued_chunks"] = sum(
                    1 for c in st.queue if isinstance(c, _Chunk)
                )
                row["inflight_chunks"] = len(st.inflight)
            row["router_state"] = st.state
        return rows

    def stats(self) -> list[dict]:
        """Per-replica cumulative stats rows (dead generations folded in)."""
        block = self.supervisor.stats
        if block is None:
            return []
        uptime = (
            time.monotonic() - self._started_at if self._started_at else 0.0
        )
        out = []
        for rid in range(self.replicas):
            row = block.snapshot(rid)
            folded = self._folded.get(rid, {})
            merged = {
                f: row[f] + folded.get(f, 0.0)
                for f in (*_COUNTER_FIELDS, "busy_seconds")
            }
            out.append({
                "name": f"replica-{rid}",
                "batches": int(merged["batches"]),
                "images": int(merged["images"]),
                "errors": int(merged["errors"]),
                "busy_seconds": round(merged["busy_seconds"], 4),
                "busy_fraction": round(
                    min(1.0, merged["busy_seconds"] / uptime) if uptime > 0
                    else 0.0,
                    4,
                ),
            })
        return out

    def refresh_metrics(self) -> None:
        """Publish per-replica labeled counters/gauges into the registry.

        Counter values are *deltas* against the last publish (so the
        registry counters stay monotonic across replica respawns, whose
        stats rows restart from zero — dead generations are folded into
        ``_folded`` by the supervisor's death callback).
        """
        if self.metrics is None or self.supervisor.stats is None:
            return
        m = self.metrics
        now = time.monotonic()
        for rid in range(self.replicas):
            row = self.supervisor.stats.snapshot(rid)
            folded = self._folded.get(rid, {})
            for f in _COUNTER_FIELDS:
                cum = row[f] + folded.get(f, 0.0)
                key = (rid, f)
                delta = cum - self._published.get(key, 0.0)
                if delta > 0:
                    m.counter(
                        f"replica_{f}_total@replica={rid}",
                        f"{f} completed by replica {rid} (all generations)",
                    ).inc(int(round(delta)))
                    self._published[key] = cum
            busy_cum = row["busy_seconds"] + folded.get("busy_seconds", 0.0)
            last_busy, last_t = self._busy_window.get(
                rid, (0.0, self._started_at or now)
            )
            window = now - last_t
            frac = (busy_cum - last_busy) / window if window > 0.05 else None
            if frac is not None:
                m.gauge(
                    f"replica_busy_fraction@replica={rid}",
                    "share of the last scrape window spent inferring",
                ).set(max(0.0, min(1.0, frac)))
                self._busy_window[rid] = (busy_cum, now)
            handle = self.supervisor.handle(rid)
            m.gauge(
                f"replica_up@replica={rid}",
                "1 while the replica process is alive",
            ).set(1.0 if handle.alive else 0.0)
        m.gauge("replicas_alive", "replica processes currently alive").set(
            self.alive_replicas
        )
        m.gauge(
            "cluster_sensitive_ratio",
            "cluster-wide sensitive rows computed / rows seen",
        ).set(self.sensitive_ratio())

    def exec_census(self, timeout: float = 5.0) -> dict:
        """Merged per-layer dispatch census across live replicas.

        Sends an in-band census probe to every live replica and sums the
        answers — same shape as
        :meth:`repro.serve.worker.WorkerPool.exec_census`.
        """
        probes: list[tuple[int, _CensusProbe]] = []
        for rid, st in self._replicas.items():
            if st.state != "up":
                continue
            probe = _CensusProbe()
            with st.lock:
                st.queue.append(probe)
            probes.append((rid, probe))
        merged: dict[str, dict] = {}
        for rid, probe in probes:
            try:
                _densities, census = probe.future.result(timeout=timeout)
            except Exception:  # noqa: BLE001 — a dead replica just drops out
                continue
            for layer, c in census.items():
                slot = merged.setdefault(
                    layer,
                    {"rows_total": 0, "rows_computed": 0, "path_calls": {}},
                )
                slot["rows_total"] += c["rows_total"]
                slot["rows_computed"] += c["rows_computed"]
                for path, calls in c["path_calls"].items():
                    slot["path_calls"][path] = (
                        slot["path_calls"].get(path, 0) + calls
                    )
        return merged


__all__ = [
    "ClusterPool",
    "ClusterClosed",
    "ReplicaError",
    "DEFAULT_SLOTS",
    "IO_POLL_SECONDS",
]

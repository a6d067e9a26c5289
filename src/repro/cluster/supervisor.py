"""Replica process lifecycle: spawn, monitor, respawn-with-backoff.

The :class:`Supervisor` owns everything whose lifetime matches the
*cluster* rather than any single replica generation: the spawn context,
the per-replica request/response :class:`~repro.cluster.shm.ShmArena`
pair, the shared :class:`~repro.cluster.shm.ShmStatsBlock`, and the
process handles.  Replicas are started with the ``spawn`` start method
— ``fork`` would duplicate the router's threads and locks mid-flight
(the THR203 class of bugs); spawn gives each replica a
clean interpreter that rebuilds its session deterministically.

A monitor thread watches process liveness.  A replica that exits
without being drained is respawned after an exponential backoff
(``backoff_base * 2**respawns``, capped at ``backoff_cap``); after
``max_respawns`` unexpected exits the replica is marked *failed* and
left down.  The router observes generation changes through the
``on_death`` / ``on_respawn`` / ``on_failed`` callbacks (called from
the monitor thread) and re-queues the dead generation's in-flight work.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.shm import ShmArena, ShmStatsBlock
from repro.cluster.worker import ReplicaSpec, replica_main
from repro.obs import log as obs_log
from repro.obs import trace
from repro.obs.log import get_logger
from repro.serve.config import ServeConfig

_log = get_logger("repro.cluster.supervisor")

#: How often the monitor thread checks process liveness.
MONITOR_POLL_SECONDS = 0.05


@dataclass
class ReplicaHandle:
    """One live generation of one replica slot."""

    replica_id: int
    generation: int
    process: mp.process.BaseProcess
    conn: object                      #: parent end of the control pipe
    started_at: float = field(default_factory=time.monotonic)
    state: str = "up"                 #: up | draining | stopped | failed

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def exitcode(self) -> int | None:
        return self.process.exitcode


class Supervisor:
    """Spawns and keeps alive ``replicas`` engine processes.

    Parameters
    ----------
    config:
        The :class:`~repro.serve.config.ServeConfig` each replica builds
        its session from (pickled into the child).
    replicas:
        Replica slot count (fixed for the supervisor's lifetime; slots
        can be *failed* but not added — membership churn is the hash
        ring's job, one level up).
    slots / req_slot_floats / res_slot_floats:
        Shared-memory geometry: transport slots per replica and the
        float64 capacity of one request / response slot.
    backoff_base / backoff_cap / max_respawns:
        Respawn policy: sleep ``min(cap, base * 2**respawns)`` before
        generation ``respawns + 1``, give up after ``max_respawns``.
    on_death / on_respawn / on_failed:
        Router callbacks, invoked from the monitor thread with the
        replica id (and the new handle, for ``on_respawn``).
    """

    def __init__(
        self,
        config: ServeConfig,
        replicas: int,
        slots: int,
        req_slot_floats: int,
        res_slot_floats: int,
        backoff_base: float = 0.25,
        backoff_cap: float = 4.0,
        max_respawns: int = 8,
        on_death=None,
        on_respawn=None,
        on_failed=None,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.config = config
        self.replicas = replicas
        self.slots = slots
        self.req_slot_floats = req_slot_floats
        self.res_slot_floats = res_slot_floats
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_respawns = max_respawns
        self.on_death = on_death
        self.on_respawn = on_respawn
        self.on_failed = on_failed

        self._ctx = mp.get_context("spawn")
        self._lock = threading.Lock()
        self._handles: dict[int, ReplicaHandle] = {}
        self._respawns: dict[int, int] = {}
        self._draining: set[int] = set()
        self._stopping = False
        self._started = False
        self._monitor: threading.Thread | None = None

        self.req_arenas: list[ShmArena] = []
        self.res_arenas: list[ShmArena] = []
        self.stats: ShmStatsBlock | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Supervisor":
        if self._started:
            raise RuntimeError("supervisor already started")
        self._started = True
        try:
            self.stats = ShmStatsBlock(self.replicas)
            for _ in range(self.replicas):
                self.req_arenas.append(ShmArena(self.slots, self.req_slot_floats))
                self.res_arenas.append(ShmArena(self.slots, self.res_slot_floats))
            for rid in range(self.replicas):
                self._spawn(rid, generation=0)
        except BaseException:
            self._release_shared_memory()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop monitoring, end every replica, release shared memory.

        The router must have stopped its per-replica I/O threads first:
        ``stop`` sends a final ``drain`` on each control pipe and that
        is only safe while no other thread reads it.  Idempotent.
        """
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            handles = list(self._handles.values())
        if self._monitor is not None:
            self._monitor.join(timeout)
        deadline = time.monotonic() + timeout
        for h in handles:
            if h.alive:
                try:
                    h.conn.send(("drain",))
                except (BrokenPipeError, OSError):
                    pass
        for h in handles:
            h.process.join(max(0.1, deadline - time.monotonic()))
            if h.alive:
                h.process.terminate()
                h.process.join(1.0)
            if h.alive:  # pragma: no cover - terminate() refused
                h.process.kill()
                h.process.join(1.0)
            h.state = "stopped"
            try:
                h.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._release_shared_memory()

    def _release_shared_memory(self) -> None:
        for arena in self.req_arenas + self.res_arenas:
            arena.close()
            arena.unlink()
        self.req_arenas = []
        self.res_arenas = []
        if self.stats is not None:
            self.stats.close()
            self.stats.unlink()
            self.stats = None

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- spawning -----------------------------------------------------------

    def _spawn(self, replica_id: int, generation: int) -> ReplicaHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Snapshot the parent's *effective* observability config into
        # the spec: the spawned child re-reads only the environment,
        # which misses CLI/programmatic --log-level/--log-json/--trace.
        level_no = obs_log.get_level()
        level_name = {v: k for k, v in obs_log.LEVELS.items()}.get(level_no)
        spec = ReplicaSpec(
            replica_id=replica_id,
            config=self.config,
            req_arena_name=self.req_arenas[replica_id].name,
            res_arena_name=self.res_arenas[replica_id].name,
            stats_name=self.stats.name,
            slots=self.slots,
            req_slot_floats=self.req_slot_floats,
            res_slot_floats=self.res_slot_floats,
            replicas=self.replicas,
            log_level=level_name,
            log_json=obs_log.json_mode(),
            trace_enabled=trace.enabled(),
        )
        process = self._ctx.Process(
            target=replica_main,
            args=(spec, child_conn),
            name=f"repro-replica-{replica_id}.{generation}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its own end
        handle = ReplicaHandle(
            replica_id=replica_id,
            generation=generation,
            process=process,
            conn=parent_conn,
        )
        with self._lock:
            self._handles[replica_id] = handle
        _log.info(
            "replica_spawned",
            replica=replica_id,
            generation=generation,
            pid=process.pid,
        )
        return handle

    # -- monitoring / respawn -----------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopping:
            time.sleep(MONITOR_POLL_SECONDS)
            with self._lock:
                dead = [
                    h
                    for h in self._handles.values()
                    if h.state == "up"
                    and not h.alive
                    and h.replica_id not in self._draining
                ]
            for h in dead:
                if self._stopping:
                    return
                self._handle_death(h)

    def _handle_death(self, handle: ReplicaHandle) -> None:
        rid = handle.replica_id
        respawns = self._respawns.get(rid, 0)
        _log.warning(
            "replica_died",
            replica=rid,
            generation=handle.generation,
            exitcode=handle.exitcode,
            respawns=respawns,
        )
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.on_death is not None:
            self.on_death(rid)
        if respawns >= self.max_respawns:
            handle.state = "failed"
            _log.error("replica_failed", replica=rid, respawns=respawns)
            if self.on_failed is not None:
                self.on_failed(rid)
            return
        delay = self.backoff_delay(respawns)
        self._respawns[rid] = respawns + 1
        # Interruptible backoff sleep: a concurrent stop() must not wait
        # out the full delay.
        deadline = time.monotonic() + delay
        while time.monotonic() < deadline and not self._stopping:
            time.sleep(min(MONITOR_POLL_SECONDS, deadline - time.monotonic()))
        if self._stopping:
            return
        new_handle = self._spawn(rid, generation=handle.generation + 1)
        if self.on_respawn is not None:
            self.on_respawn(rid, new_handle)

    def backoff_delay(self, respawns: int) -> float:
        """Delay before respawn number ``respawns + 1`` (bounded)."""
        return float(min(self.backoff_cap, self.backoff_base * (2.0 ** respawns)))

    # -- introspection / coordination ---------------------------------------

    def handle(self, replica_id: int) -> ReplicaHandle:
        with self._lock:
            return self._handles[replica_id]

    def handles(self) -> list[ReplicaHandle]:
        with self._lock:
            return [self._handles[rid] for rid in sorted(self._handles)]

    def respawn_count(self, replica_id: int) -> int:
        with self._lock:
            return self._respawns.get(replica_id, 0)

    def mark_draining(self, replica_id: int) -> None:
        """Suppress respawn for an intentional drain (router-driven)."""
        with self._lock:
            self._draining.add(replica_id)
            self._handles[replica_id].state = "draining"

    def clear_draining(self, replica_id: int) -> None:
        with self._lock:
            self._draining.discard(replica_id)

    def restart(self, replica_id: int) -> ReplicaHandle:
        """Spawn the next generation of a drained/stopped replica."""
        with self._lock:
            old = self._handles[replica_id]
            if old.alive:
                raise RuntimeError(
                    f"replica {replica_id} still alive; drain it first"
                )
            self._draining.discard(replica_id)
        return self._spawn(replica_id, generation=old.generation + 1)

    def liveness(self) -> list[dict]:
        """Per-replica liveness for ``/healthz`` (JSON-safe)."""
        stats = self.stats
        now = time.time()
        out = []
        for h in self.handles():
            row: dict = {
                "replica": h.replica_id,
                "generation": h.generation,
                "state": h.state if not h.alive or h.state != "up" else "up",
                "alive": bool(h.alive),
                "pid": h.process.pid,
                "respawns": self.respawn_count(h.replica_id),
            }
            if stats is not None:
                snap = stats.snapshot(h.replica_id)
                hb = snap["heartbeat"]
                row["heartbeat_age_s"] = (
                    round(max(0.0, now - hb), 3) if hb > 0 else None
                )
                row["batches"] = int(snap["batches"])
                row["images"] = int(snap["images"])
            out.append(row)
        return out


def slot_floats_for(shape: tuple, max_batch: int) -> int:
    """Float64 capacity one slot needs for ``max_batch`` items of ``shape``."""
    return int(max_batch) * int(np.prod(shape, dtype=np.int64))


__all__ = ["Supervisor", "ReplicaHandle", "slot_floats_for", "MONITOR_POLL_SECONDS"]

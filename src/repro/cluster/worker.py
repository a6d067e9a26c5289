"""The replica process: one engine, one control pipe, two arenas.

:func:`replica_main` is the ``multiprocessing`` (spawn) target.  Each
replica process builds its *own* :class:`~repro.serve.session.ModelSession`
from the pickled :class:`~repro.serve.config.ServeConfig` — engines hold
packed bit-plane arrays and per-layer caches that are cheaper to rebuild
deterministically (same config ⇒ bit-identical weights) than to ship —
then loops on the control connection:

* ``("req", rid, slot, shape, ctx)`` — a request chunk sits in
  request-arena slot ``slot``; infer it under the wire-form
  :class:`~repro.obs.trace.TraceContext` ``ctx`` (may be ``None``),
  write the logits into the *same* slot index of the response arena,
  answer ``("res", rid, slot, out_shape)``.  Failures answer
  ``("err", rid, message)`` and are confined to that request.
* ``("census",)`` — answer ``("census", densities, exec_census)`` with
  the per-layer sensitivity densities and result-generation dispatch
  census of this replica's engine.
* ``("drain",)`` — finish (the router already stopped sending work),
  mark the stats row dead, answer ``("drained", replica_id)``, exit 0.

Between messages the loop polls with a short timeout and refreshes its
heartbeat field in the shared stats block, which is how the supervisor
distinguishes a busy replica from a dead one.

When tracing is on, the replica also runs a **telemetry channel**: it
re-applies the parent's observability config (spawned children inherit
the environment but not in-process CLI overrides), names its trace lane
``replica-<id>``, and periodically ships batches of finished spans,
buffered log records, and per-layer sensitivity samples back over the
control pipe as ``("telemetry", payload)`` for
:class:`repro.obs.collector.TelemetryCollector` to merge.

Test hooks (``config.extra``): ``cluster_echo`` replaces the engine
with a deterministic array transform (no session build — transport and
supervision tests run in milliseconds); ``cluster_exit_after=N`` makes
the replica ``os._exit`` after N batches (crash-recovery tests);
``cluster_exit_on_start`` exits immediately (backoff tests);
``cluster_raise_on_start`` raises on startup (crash-log tests).
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.obs import log as obs_log
from repro.obs import trace
from repro.obs.log import get_logger
from repro.serve.config import ServeConfig
from repro.cluster.shm import ShmArena, ShmStatsBlock

_log = get_logger("repro.cluster.worker")

#: Seconds the worker loop blocks in ``conn.poll`` before refreshing its
#: heartbeat; bounds both heartbeat staleness and drain latency.
POLL_SECONDS = 0.1

#: Exit code of a ``cluster_exit_after`` injected crash (distinguishable
#: from real failures in supervisor logs and tests).
CRASH_EXIT_CODE = 23

#: Telemetry ship cadence: at most every this many seconds …
TELEMETRY_INTERVAL_SECONDS = 1.0

#: … unless this many finished spans accumulate first.
TELEMETRY_SPAN_HIGH_WATER = 256


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything a replica process needs, in picklable form."""

    replica_id: int
    config: ServeConfig
    req_arena_name: str
    res_arena_name: str
    stats_name: str
    slots: int
    req_slot_floats: int
    res_slot_floats: int
    replicas: int
    #: Observability snapshot of the parent at spawn time (spawned
    #: children re-read the env, which misses CLI/programmatic config).
    log_level: str | None = None
    log_json: bool | None = None
    trace_enabled: bool = False


def _echo_transform(chunk: np.ndarray, classes: int) -> np.ndarray:
    """Deterministic engine stand-in for transport tests.

    Returns the first ``classes`` features of each flattened image
    (padded by repetition when the image is smaller), so tests can
    predict exact output bytes without building a model.
    """
    flat = chunk.reshape(chunk.shape[0], -1)
    if flat.shape[1] >= classes:
        return flat[:, :classes].copy()
    reps = int(np.ceil(classes / flat.shape[1]))
    return np.tile(flat, (1, reps))[:, :classes].copy()


def _engine_census(engine) -> tuple[dict, dict]:
    """(layer densities, exec census) of one engine — the per-process
    analogue of :meth:`repro.serve.worker.WorkerPool.exec_census`."""
    densities: dict[str, float] = {}
    census: dict[str, dict] = {}
    for name, rec in engine.records.items():
        if rec.outputs_total:
            densities[name] = rec.sensitive_total / rec.outputs_total
        extra = getattr(rec, "extra", None) or {}
        if "exec_path_calls" not in extra:
            continue
        census[name] = {
            "rows_total": int(extra.get("exec_rows_total", 0)),
            "rows_computed": int(extra.get("exec_rows_computed", 0)),
            "path_calls": {
                p: int(c) for p, c in extra["exec_path_calls"].items()
            },
        }
    return densities, census


def _census_totals(census: dict) -> tuple[int, int]:
    total = sum(c["rows_total"] for c in census.values())
    computed = sum(c["rows_computed"] for c in census.values())
    return total, computed


def _apply_observability(spec: ReplicaSpec) -> "obs_log.RecordBuffer | None":
    """Re-apply the parent's obs config in this replica process.

    Spawned children re-read ``REPRO_LOG_LEVEL``/``REPRO_LOG_JSON``/
    ``REPRO_TRACE`` at import, which silently drops any ``--log-level``
    / ``--log-json`` / ``--trace`` the parent applied in-process — so
    the spec carries an explicit snapshot and we re-apply it here.
    Returns the installed log-record buffer when telemetry is on.
    """
    obs_log.configure(level=spec.log_level, json_mode=spec.log_json)
    trace.set_process_lane(f"replica-{spec.replica_id}")
    if not spec.trace_enabled:
        return None
    trace.enable()
    return obs_log.install_buffer()


def replica_main(spec: ReplicaSpec, conn) -> None:
    """Entry point of one replica process (spawn target)."""
    # A foreground Ctrl-C reaches the whole process group; shutdown is
    # the supervisor's job (drain message, then terminate), so replicas
    # must not die — or spew tracebacks — on the terminal's SIGINT.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    buffer = _apply_observability(spec)
    extra = spec.config.extra or {}
    if extra.get("cluster_exit_on_start"):
        os._exit(int(extra.get("cluster_exit_code", CRASH_EXIT_CODE)))

    try:
        _attach_and_serve(spec, conn, buffer)
    except Exception as exc:
        # Structured last words: the supervisor only sees the exit code,
        # so record what killed this replica before the process dies.
        _log.error(
            "replica_crash",
            replica=spec.replica_id,
            pid=os.getpid(),
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )
        raise


def _attach_and_serve(spec: ReplicaSpec, conn, buffer) -> None:
    req_arena = ShmArena(
        spec.slots, spec.req_slot_floats, name=spec.req_arena_name
    )
    try:
        res_arena = ShmArena(
            spec.slots, spec.res_slot_floats, name=spec.res_arena_name
        )
        try:
            stats = ShmStatsBlock(spec.replicas, name=spec.stats_name)
            try:
                _serve(spec, conn, req_arena, res_arena, stats, buffer)
            finally:
                stats.close()
        finally:
            res_arena.close()
    finally:
        req_arena.close()
        conn.close()


def _sensitivity_samples(engine) -> dict[str, dict]:
    """Per-layer drift samples in the shape ``DriftMonitor.observe`` eats."""
    if engine is None:
        return {}
    densities, census = _engine_census(engine)
    samples: dict[str, dict] = {
        name: {"sensitive_ratio": ratio} for name, ratio in densities.items()
    }
    for name, c in census.items():
        samples.setdefault(name, {}).update(
            rows_total=c["rows_total"],
            rows_computed=c["rows_computed"],
            path_calls=c["path_calls"],
        )
    return samples


def _ship_telemetry(spec: ReplicaSpec, conn, engine, buffer) -> None:
    """Drain finished spans + buffered logs + samples down the pipe."""
    tracer = trace.get_tracer()
    spans = tracer.drain()
    logs = buffer.drain() if buffer is not None else []
    samples = _sensitivity_samples(engine)
    if not spans and not logs and not samples:
        return
    conn.send(("telemetry", {
        "lane": trace.process_lane(),
        "pid": os.getpid(),
        "epoch_wall": tracer.epoch_wall,
        "spans": [s.as_dict() for s in spans],
        "logs": logs,
        "samples": samples,
    }))


def _serve(
    spec: ReplicaSpec,
    conn,
    req_arena: ShmArena,
    res_arena: ShmArena,
    stats: ShmStatsBlock,
    buffer=None,
) -> None:
    extra = spec.config.extra or {}
    if extra.get("cluster_raise_on_start"):
        raise RuntimeError("injected replica start failure")
    echo_classes = int(extra.get("cluster_echo_classes", 10))
    crash_after = extra.get("cluster_exit_after")
    engine = None
    if not extra.get("cluster_echo"):
        from repro.serve.session import ModelSession

        session = ModelSession(spec.config)
        engine = session.engine

    rid_row = stats.row(spec.replica_id)
    rid_row[:] = 0.0
    stats.set(spec.replica_id, "pid", float(os.getpid()))
    stats.set(spec.replica_id, "alive", 1.0)
    stats.set(spec.replica_id, "heartbeat", time.time())
    conn.send(("ready", spec.replica_id, os.getpid()))
    # Each replica compiles its own inference plans (ModelSession warms
    # the steady-state shape at build); planned execution is bit-identical
    # to the unplanned path, so N replicas match --replicas 1 exactly.
    plan_modes = sorted(
        {p.mode for p in engine._plans.values()}
    ) if engine is not None and engine.use_plan else []
    _log.info(
        "replica_up",
        replica=spec.replica_id,
        pid=os.getpid(),
        mode="echo" if engine is None else "engine",
        plan=",".join(plan_modes) if plan_modes else "off",
    )

    tracer = trace.get_tracer()
    telemetry_on = tracer.enabled
    last_ship = time.perf_counter()

    def maybe_ship(force: bool = False) -> None:
        nonlocal last_ship
        if not telemetry_on:
            return
        now = time.perf_counter()
        if (not force and now - last_ship < TELEMETRY_INTERVAL_SECONDS
                and len(tracer) < TELEMETRY_SPAN_HIGH_WATER):
            return
        last_ship = now
        _ship_telemetry(spec, conn, engine, buffer)

    batches = 0
    while True:
        if not conn.poll(POLL_SECONDS):
            stats.set(spec.replica_id, "heartbeat", time.time())
            maybe_ship()
            continue
        try:
            msg = conn.recv()
        except EOFError:
            # Router vanished; nothing to drain into.
            break
        kind = msg[0]
        if kind == "req":
            rid, slot, shape = msg[1], msg[2], msg[3]
            ctx = trace.TraceContext.from_wire(msg[4]) if len(msg) > 4 else None
            chunk = req_arena.view(slot, tuple(shape))
            t0 = time.perf_counter()
            try:
                with tracer.activate(ctx), trace.span(
                    "replica.chunk",
                    replica=spec.replica_id,
                    batch=int(chunk.shape[0]),
                    seq=rid,
                ):
                    if engine is None:
                        out = _echo_transform(chunk, echo_classes)
                    else:
                        out = engine.infer(chunk)
            except Exception as exc:  # noqa: BLE001 — confined to the request
                stats.add(spec.replica_id, "errors", 1.0)
                conn.send(("err", rid, f"{type(exc).__name__}: {exc}"))
                continue
            out_shape = res_arena.write(slot, out)
            conn.send(("res", rid, slot, out_shape))
            busy = time.perf_counter() - t0
            batches += 1
            stats.add(spec.replica_id, "batches", 1.0)
            stats.add(spec.replica_id, "images", float(chunk.shape[0]))
            stats.add(spec.replica_id, "busy_seconds", busy)
            if engine is not None:
                _, census = _engine_census(engine)
                total, computed = _census_totals(census)
                stats.set(spec.replica_id, "sens_rows_total", float(total))
                stats.set(spec.replica_id, "sens_rows_computed", float(computed))
            stats.set(spec.replica_id, "heartbeat", time.time())
            maybe_ship()
            if crash_after is not None and batches >= int(crash_after):
                _log.warning(
                    "replica_injected_crash",
                    replica=spec.replica_id,
                    after_batches=batches,
                )
                os._exit(CRASH_EXIT_CODE)
        elif kind == "census":
            densities, census = (
                ({}, {}) if engine is None else _engine_census(engine)
            )
            conn.send(("census", densities, census))
        elif kind in ("drain", "stop"):
            stats.set(spec.replica_id, "alive", 0.0)
            # Final telemetry ship *before* the drained ack: the router's
            # drain loop keeps routing messages until it sees the ack, so
            # spans from the last batches are not lost at shutdown.
            maybe_ship(force=True)
            conn.send(("drained", spec.replica_id))
            _log.info("replica_drained", replica=spec.replica_id, batches=batches)
            break
        else:  # pragma: no cover - protocol error
            conn.send(("err", None, f"unknown control message {kind!r}"))


__all__ = [
    "ReplicaSpec",
    "replica_main",
    "POLL_SECONDS",
    "CRASH_EXIT_CODE",
    "TELEMETRY_INTERVAL_SECONDS",
    "TELEMETRY_SPAN_HIGH_WATER",
]

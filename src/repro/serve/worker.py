"""Engine worker pool: N threads, one thread-confined engine each.

Each worker owns a clone of the session's calibrated
:class:`~repro.core.pipeline.QuantizedInferenceEngine` (engines are
reusable but deliberately not thread-parallel — see the engine docstring)
and loops: pull a coalesced :class:`~repro.serve.batcher.MicroBatch`,
run ``engine.infer``, split results back to the request futures, and
record metrics (batch size, queue wait, inference latency, per-layer
sensitivity densities).  When a coalesced batch raises, each of its
requests is re-run alone, so one bad request fails only itself.

Shutdown is graceful: the pool closes the batcher (failing queued
requests), then joins every thread with a bounded timeout.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import QuantizedInferenceEngine
from repro.obs import trace
from repro.obs.log import get_logger
from repro.serve.batcher import MicroBatch, MicroBatcher
from repro.serve.metrics import MetricsRegistry
from repro.serve.session import ModelSession

_log = get_logger("repro.serve.worker")


@dataclass
class WorkerStats:
    """Per-worker counters (updated only by the owning thread)."""

    name: str
    batches: int = 0
    images: int = 0
    errors: int = 0
    busy_seconds: float = 0.0
    last_batch_at: float | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "batches": self.batches,
            "images": self.images,
            "errors": self.errors,
            "busy_seconds": round(self.busy_seconds, 4),
        }


@dataclass
class _Worker:
    thread: threading.Thread
    engine: QuantizedInferenceEngine
    stats: WorkerStats = field(init=False)
    #: Per-layer ``(record, sensitive, outputs, path calls)`` as of this
    #: worker's previous batch; :meth:`batch_samples` differences
    #: against it.
    seen: dict = field(init=False)

    def __post_init__(self):
        self.stats = WorkerStats(name=self.thread.name)
        self.seen = self._census()

    def _census(self) -> dict:
        return {
            name: (rec, rec.sensitive_total, rec.outputs_total, rec.path_calls.copy())
            for name, rec in self.engine.records.items()
        }

    def batch_samples(self) -> dict[str, dict]:
        """Each layer's sensitive ratio and path mix over this worker's
        batches since the previous call: the drift monitor's samples.

        A replaced record (``engine.reset_records``) counts from zero.
        """
        now = self._census()
        samples: dict[str, dict] = {}
        for name, (rec, sens, outs, calls) in now.items():
            prev = self.seen.get(name)
            s0, o0, c0 = prev[1:] if prev is not None and prev[0] is rec else (0, 0, Counter())
            if outs > o0:
                samples[name] = {
                    "sensitive_ratio": (sens - s0) / (outs - o0),
                    "path_calls": dict(calls - c0),
                }
        self.seen = now
        return samples


class WorkerPool:
    """Runs N engine workers against one micro-batcher.

    Parameters
    ----------
    session:
        The built :class:`~repro.serve.session.ModelSession`; provides the
        primary engine and per-worker clones.
    batcher:
        The shared request queue.
    metrics:
        Registry receiving ``requests_total`` / ``images_total`` /
        ``batch_size`` / ``queue_wait_ms`` / ``infer_ms`` and the
        per-layer ``sensitive_ratio:<layer>`` gauges.
    num_workers:
        Worker thread count (each confines its own engine clone).
    drift:
        Optional :class:`~repro.obs.drift.DriftMonitor` fed, after each
        batch, that batch's own per-layer sensitive ratio and path mix
        (the gauges publish cumulative ratios, which a long uptime
        would average flat).
    """

    POLL_SECONDS = 0.05  #: batcher poll period, bounds shutdown latency

    def __init__(
        self,
        session: ModelSession,
        batcher: MicroBatcher,
        metrics: MetricsRegistry | None = None,
        num_workers: int = 2,
        drift=None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.session = session
        self.batcher = batcher
        self.metrics = m = metrics if metrics is not None else MetricsRegistry()
        self._requests_total = m.counter("requests_total", "requests completed")
        self._images_total = m.counter("images_total", "images inferred")
        self._errors_total = m.counter("errors_total", "failed batches")
        self._batch_hist = m.histogram(
            "batch_size", "images per dispatched micro-batch"
        )
        self._wait_hist = m.histogram("queue_wait_ms", "request time in queue")
        self._infer_hist = m.histogram(
            "infer_ms", "engine latency per micro-batch"
        )
        self.drift = drift
        self._stop = threading.Event()
        self._started = False
        engines = session.engines_for_workers(num_workers)
        self._workers = [
            _Worker(
                thread=threading.Thread(
                    target=self._run, args=(i,), name=f"serve-worker-{i}", daemon=True
                ),
                engine=engines[i],
            )
            for i in range(num_workers)
        ]

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._started:
            raise RuntimeError("worker pool already started")
        self._started = True
        for w in self._workers:
            w.thread.start()
        return self

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting work, fail queued requests, join all threads."""
        self._stop.set()
        self.batcher.shutdown()
        for w in self._workers:
            if w.thread.is_alive():
                w.thread.join(timeout)

    @property
    def alive_workers(self) -> int:
        return sum(1 for w in self._workers if w.thread.is_alive())

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- the worker loop ----------------------------------------------------

    def _run(self, index: int) -> None:
        worker = self._workers[index]
        engine, stats = worker.engine, worker.stats
        while not self._stop.is_set():
            batch = self.batcher.next_batch(timeout=self.POLL_SECONDS)
            if batch is None:
                if self.batcher.closed:
                    break
                continue
            runs = [batch]
            while runs:
                run = runs.pop(0)
                try:
                    outputs, elapsed = self._infer(engine, stats, run)
                except BaseException as exc:  # noqa: BLE001 — forwarded to futures
                    if len(run.requests) == 1:
                        self._fail(stats, run, exc)
                    else:
                        # One bad request must not fail its batch-mates:
                        # run each request alone; only the ones that raise
                        # again fail.
                        runs = [
                            MicroBatch([r], created_at=run.created_at)
                            for r in run.requests
                        ]
                    continue
                self._complete(worker, run, outputs, elapsed)

    def _infer(self, engine: QuantizedInferenceEngine, stats: WorkerStats,
               batch: MicroBatch) -> tuple[np.ndarray, float]:
        """Run one batch through the engine: (stacked outputs, seconds)."""
        t0 = time.perf_counter()
        ctxs = batch.trace_contexts()
        # Span nesting (same thread): serve.batch → engine.infer
        # → engine.layer → odq.run.  A coalesced batch can carry
        # several request contexts: the span parents under the first and
        # lists the rest by trace id.
        with trace.get_tracer().activate(
            ctxs[0] if ctxs else None
        ), trace.span(
            "serve.batch", worker=stats.name, batch=batch.size
        ) as sp:
            if len(ctxs) > 1:
                sp.set(extra_trace_ids=[c.trace_id for c in ctxs[1:]])
            outputs = engine.infer(batch.stack())
            sp.add("requests", len(batch.requests))
        return outputs, time.perf_counter() - t0

    def _fail(self, stats: WorkerStats, batch: MicroBatch,
              exc: BaseException) -> None:
        stats.errors += 1
        self._errors_total.inc()
        batch.fail(exc)
        _log.warning(
            "batch_failed",
            worker=stats.name,
            batch=batch.size,
            error=f"{type(exc).__name__}: {exc}",
        )

    def _complete(self, worker: _Worker, batch: MicroBatch,
                  outputs: np.ndarray, elapsed: float) -> None:
        """Resolve the batch's futures and record its metrics."""
        batch.complete(outputs)
        stats = worker.stats
        stats.batches += 1
        stats.images += batch.size
        stats.busy_seconds += elapsed
        stats.last_batch_at = time.time()
        self._requests_total.inc(len(batch.requests))
        self._images_total.inc(batch.size)
        self._batch_hist.observe(batch.size)
        self._infer_hist.observe(elapsed * 1000.0)
        for wait in batch.queue_waits():
            self._wait_hist.observe(wait * 1000.0)
        self._publish_layer_densities(self.metrics, worker)

    def _publish_layer_densities(self, m: MetricsRegistry, worker: _Worker) -> None:
        """Publish the cumulative census gauges of all worker engines and
        feed the drift monitor ``worker``'s own batch."""
        densities = self.layer_densities()
        exec_census = self.exec_census()
        for name, density in densities.items():
            m.gauge(
                f"sensitive_ratio:{name}",
                "per-layer sensitive-output ratio across worker engines",
            ).set(density)
        for name, census in exec_census.items():
            m.gauge(
                f"exec_rows_total:{name}",
                "rows seen by the layer's result-generation dispatch",
            ).set(census["rows_total"])
            m.gauge(
                f"exec_rows_computed:{name}",
                "rows actually computed by the chosen exec path",
            ).set(census["rows_computed"])
            for path, calls in census["path_calls"].items():
                m.gauge(
                    f"exec_path_calls_{path}:{name}",
                    f"dispatches of the {path} result-generation path",
                ).set(calls)
        if self.drift is not None:
            self.drift.observe(worker.batch_samples())

    # -- introspection ------------------------------------------------------

    def layer_densities(self) -> dict[str, float]:
        """Per-layer sensitive-output ratio summed over all worker engines."""
        sens: dict[str, int] = {}
        total: dict[str, int] = {}
        for w in self._workers:
            for name, rec in w.engine.records.items():
                sens[name] = sens.get(name, 0) + rec.sensitive_total
                total[name] = total.get(name, 0) + rec.outputs_total
        return {
            name: (sens[name] / total[name] if total[name] else 0.0)
            for name in sens
        }

    def exec_census(self) -> dict[str, dict]:
        """Per-layer result-generation dispatch census over all workers.

        Sums the dispatch fields of the layer records (``path_calls``,
        ``rows_total``, ``rows_computed``): rows seen vs rows actually
        computed by the chosen path, and how often each path
        (``dense``/``sparse``) was dispatched.  Layers that never ran
        ODQ result generation (non-ODQ schemes) are absent.
        """
        census: dict[str, dict] = {}
        for w in self._workers:
            for name, rec in w.engine.records.items():
                if not rec.path_calls:
                    continue
                c = census.setdefault(
                    name,
                    {"rows_total": 0, "rows_computed": 0, "path_calls": {}},
                )
                c["rows_total"] += rec.rows_total
                c["rows_computed"] += rec.rows_computed
                for path, calls in rec.path_calls.items():
                    c["path_calls"][path] = c["path_calls"].get(path, 0) + calls
        return census

    def stats(self) -> list[dict]:
        return [w.stats.as_dict() for w in self._workers]


__all__ = ["WorkerPool", "WorkerStats"]

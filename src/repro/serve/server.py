"""The serving composition root: session cache → batcher → workers → HTTP.

:class:`InferenceServer` wires the pieces of ``repro.serve`` together and
owns their lifecycles.  With ``replicas=1`` (the default) requests flow
through the in-process thread pool:

.. code-block:: text

    HTTP /predict ─┐
    HTTP /predict ─┼─> MicroBatcher ──> WorkerPool (N × engine clone)
    HTTP /predict ─┘        │                  │
                            └── futures <─ split outputs

With ``replicas > 1`` the same front end drives the multi-process tier
(:mod:`repro.cluster`) instead — N replica processes fed over
shared-memory arenas, with least-queued placement and crash-respawn
supervision:

.. code-block:: text

    HTTP /predict ──> ClusterPool ──> replica process 0 (engine)
                        │  router ──> replica process 1 (engine)
                        └─ futures <── shared-memory logits

Use it embedded (tests, benchmarks)::

    with InferenceServer(ServeConfig(model="lenet", port=0)) as server:
        url = server.url  # actual bound port
        ...

or from the CLI: ``python -m repro serve --model lenet --scheme odq
--replicas 4``.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs.collector import TelemetryCollector
from repro.obs.drift import DriftMonitor, baseline_from_engine
from repro.serve.batcher import MicroBatcher
from repro.serve.config import ServeConfig
from repro.serve.http import ServingHTTPServer
from repro.serve.metrics import MetricsRegistry
from repro.serve.session import ModelSession, SessionManager
from repro.serve.worker import WorkerPool
from repro.utils.report import ascii_table


class InferenceServer:
    """A long-lived batched quantized-inference server.

    Construction builds (or fetches from ``sessions``) the model session —
    the expensive, amortized-once part — and prepares the batcher and
    worker pool (or, for ``config.replicas > 1``, the replica cluster).
    :meth:`start` spawns the workers and the HTTP listener;
    :meth:`shutdown` reverses everything and joins all threads.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        sessions: SessionManager | None = None,
        verbose: bool = False,
    ):
        self.config = config or ServeConfig()
        self.sessions = sessions or SessionManager()
        self.verbose = verbose
        self.metrics = MetricsRegistry()

        # The front-end session validates request shapes and describes
        # itself on /healthz; in cluster mode the replicas build their
        # own (bit-identical) sessions and this one never infers.
        self.session: ModelSession = self.sessions.get_or_create(self.config)
        # Drift monitor baseline: the front-end session calibrated at
        # build, so its engine records hold the calibration-set per-layer
        # sensitive ratios the paper's scheme anchored on.
        self.drift = DriftMonitor(
            baseline=baseline_from_engine(self.session.engine),
            band=self.config.drift_band,
            metrics=self.metrics,
        )
        self.collector: TelemetryCollector | None = None
        self.cluster = None
        self.batcher: MicroBatcher | None = None
        self.pool: WorkerPool | None = None
        if self.config.replicas > 1:
            from repro.cluster import ClusterPool

            self.collector = TelemetryCollector(
                metrics=self.metrics,
                drift=self.drift,
                spool_path=self.config.telemetry_spool,
            )
            self.cluster = ClusterPool(
                self.config,
                input_shape=self.session.input_shape,
                num_classes=self.session.num_classes,
                metrics=self.metrics,
                collector=self.collector,
            )
        else:
            self.batcher = MicroBatcher(max_batch_size=self.config.max_batch_size)
            self.pool = WorkerPool(
                self.session,
                self.batcher,
                metrics=self.metrics,
                num_workers=self.config.workers,
                drift=self.drift,
            )
        self._httpd: ServingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._started = False
        self._stopped = False
        self._draining = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "InferenceServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        if self.cluster is not None:
            self.cluster.start()
        else:
            self.pool.start()
        self._httpd = ServingHTTPServer((self.config.host, self.config.port), self)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="serve-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful stop: refuse new work, close HTTP, then drain workers.

        Order matters.  ``_draining`` flips first so handler threads
        still in flight answer 503 instead of racing a closing pool;
        the listening socket closes next (no new connections); only
        then is the worker tier drained — requests the pool already
        accepted finish before their engines exit.  Idempotent.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        if self._httpd is not None:
            self._httpd.shutdown()       # stop serve_forever loop
            self._httpd.server_close()   # release the socket
        if self._http_thread is not None:
            self._http_thread.join(timeout)
        if self.cluster is not None:
            self.cluster.shutdown(timeout)
        else:
            self.pool.shutdown(timeout)
        if self.collector is not None:
            self.collector.close()

    @property
    def draining(self) -> bool:
        """True once shutdown began: /predict answers 503 from here on."""
        return self._draining

    def wait(self, poll_seconds: float = 1.0) -> None:
        """Block the calling thread until the HTTP listener exits."""
        if self._http_thread is None:
            raise RuntimeError("server not started")
        while self._http_thread.is_alive():
            self._http_thread.join(poll_seconds)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- addressing ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0`` to the OS choice)."""
        if self._httpd is None:
            raise RuntimeError("server not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # -- request dispatch ---------------------------------------------------

    def submit(self, arr: np.ndarray, ctx=None):
        """Route a request batch to the active backend; returns a Future.

        ``ctx`` is the request's :class:`~repro.obs.trace.TraceContext`
        (or ``None``), threaded through so backend spans parent under
        the HTTP request span.
        """
        if self.cluster is not None:
            return self.cluster.submit(arr, ctx=ctx)
        return self.batcher.submit(arr, ctx=ctx)

    def refresh_metrics(self) -> None:
        """Pull backend-side counters into the registry (scrape-time)."""
        if self.cluster is not None:
            self.cluster.refresh_metrics()

    # -- endpoint bodies ----------------------------------------------------

    def health(self) -> dict:
        body = {
            "status": "draining" if self._draining else "ok",
            "session": self.session.describe(),
        }
        if self.cluster is not None:
            body["replicas"] = self.cluster.liveness()
            body["replicas_alive"] = self.cluster.alive_replicas
            body["requests_submitted"] = self.cluster.submitted
            body["batches_dispatched"] = self.cluster.dispatched
        else:
            body["workers_alive"] = self.pool.alive_workers
            body["queue_depth"] = len(self.batcher)
            body["requests_submitted"] = self.batcher.submitted
            body["batches_dispatched"] = self.batcher.dispatched
        return body

    def render_stats(self) -> str:
        """Plain-text operator view: metrics tables + workers + session."""
        self.refresh_metrics()
        parts = [self.metrics.render(title=f"repro.serve — {self.session.key}")]
        backend = self.cluster if self.cluster is not None else self.pool
        worker_rows = [
            [s["name"], s["batches"], s["images"], s["errors"], s["busy_seconds"]]
            for s in backend.stats()
        ]
        parts.append(
            ascii_table(
                ["worker", "batches", "images", "errors", "busy_s"], worker_rows
            )
        )
        session_rows = [[k, v] for k, v in self.session.describe().items()]
        parts.append(ascii_table(["session", "value"], session_rows))
        return "\n\n".join(parts) + "\n"


__all__ = ["InferenceServer"]

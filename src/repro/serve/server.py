"""The serving composition root: session → batcher → workers → HTTP.

:class:`InferenceServer` wires the pieces of ``repro.serve`` together and
owns their lifecycles.  Requests flow through the in-process thread
pool:

.. code-block:: text

    HTTP /predict ─┐
    HTTP /predict ─┼─> MicroBatcher ──> WorkerPool (N × engine clone)
    HTTP /predict ─┘        │                  │
                            └── futures <─ split outputs

Use it embedded (tests, benchmarks)::

    with InferenceServer(ServeConfig(model="lenet", port=0)) as server:
        url = server.url  # actual bound port
        ...

or from the CLI: ``python -m repro serve --model lenet --scheme odq
--workers 2``.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs.drift import DriftMonitor
from repro.serve.batcher import MicroBatcher
from repro.serve.config import ServeConfig
from repro.serve.http import ServingHTTPServer
from repro.serve.metrics import MetricsRegistry
from repro.serve.session import ModelSession
from repro.serve.worker import WorkerPool
from repro.utils.report import ascii_table


class InferenceServer:
    """A long-lived batched quantized-inference server.

    Construction builds the model session from ``config`` — the
    expensive, amortized-once part — and prepares the batcher and worker
    pool.  A prebuilt ``session`` (tests share one) must have been built
    from an equal config; any other raises :class:`ValueError`.
    :meth:`start` spawns the workers and the HTTP listener;
    :meth:`shutdown` reverses everything and joins all threads.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        session: ModelSession | None = None,
        verbose: bool = False,
    ):
        self.config = config or ServeConfig()
        if session is not None and session.config != self.config:
            raise ValueError(
                f"session was built from {session.config}, "
                f"not the server's {self.config}"
            )
        self.verbose = verbose
        self.metrics = MetricsRegistry()

        # The session validates request shapes, describes itself on
        # /healthz, and its engine becomes worker 0.
        self.session: ModelSession = session or ModelSession(self.config)
        # Drift baseline: the per-layer sensitive ratios of the session's
        # warm-up inference on held-out images at the dataset's own
        # brightness, so dim or bright traffic shows as drift.
        self.drift = DriftMonitor(
            baseline=self.session.baseline,
            band=self.config.drift_band,
            metrics=self.metrics,
        )
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
        self.pool.shutdown(timeout)

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
        """Queue a request batch for the worker pool; returns a Future.

        ``ctx`` is the request's :class:`~repro.obs.trace.TraceContext`
        (or ``None``), threaded through so worker spans parent under
        the HTTP request span.
        """
        return self.batcher.submit(arr, ctx=ctx)

    # -- endpoint bodies ----------------------------------------------------

    def health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "session": self.session.describe(),
            "workers_alive": self.pool.alive_workers,
            "queue_depth": len(self.batcher),
            "requests_submitted": self.batcher.submitted,
            "batches_dispatched": self.batcher.dispatched,
        }

    def render_stats(self) -> str:
        """Plain-text operator view: metrics tables + workers + session."""
        parts = [self.metrics.render(title=f"repro.serve — {self.session.label()}")]
        worker_rows = [
            [s["name"], s["batches"], s["images"], s["errors"], s["busy_seconds"]]
            for s in self.pool.stats()
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

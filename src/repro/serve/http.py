"""Dependency-free HTTP front end (stdlib ``http.server``).

JSON-over-POST inference plus operational endpoints:

=============  ======  ====================================================
``/predict``   POST    ``{"inputs": [...]}`` → ``{"predictions": [...]}``
``/healthz``   GET     liveness + session summary
``/metrics``   GET     JSON metrics snapshot (counters/gauges/histograms);
                       ``?format=prom`` or ``Accept: text/plain`` returns
                       Prometheus text exposition instead
``/stats``     GET     plain-text ASCII tables (metrics + worker stats)
=============  ======  ====================================================

``/predict`` accepts a single image (``C×H×W`` nested lists) under
``"input"`` or one-or-more images under ``"inputs"`` (``N×C×H×W``); keys
it does not know are ignored.  Each request is submitted to the active
backend and the handler thread blocks on its future —
``ThreadingHTTPServer`` gives us one thread per in-flight request, which
is exactly the producer model the backends expect.

Every response leaves in one ``sendall`` (status line, headers and body
together) on a ``TCP_NODELAY`` socket, so no response waits out the
client's delayed ACK.  The edge rejects what the engine must never see:
a ``Content-Length`` that is not a non-negative integer (400) or above
:data:`MAX_BODY_BYTES` (413, body left unread; both close the
connection), and non-finite pixels (400).

The ``e2e_ms`` histogram times each answered ``/predict`` from
``do_POST`` entry until its response is written; the response's
``latency_ms`` runs from the same start until the logits are ready.

During shutdown the server *drains*: ``/predict`` (and ``/healthz``)
answer **503** while requests already accepted finish on the workers.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.obs import trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.server import InferenceServer

#: Seconds a /predict handler waits on its future before giving up.
PREDICT_TIMEOUT_SECONDS = 60.0

#: Largest request body /predict reads (bytes); larger ones answer 413.
#: 16 MiB of JSON is about 800k pixels, ~1000 MNIST or ~260 CIFAR images.
MAX_BODY_BYTES = 16 * 1024 * 1024


class ServingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a reference to the serving app."""

    daemon_threads = True  # in-flight handlers must not block shutdown
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app: "InferenceServer"):
        super().__init__(address, ServeRequestHandler)
        self.app = app


class ServeRequestHandler(BaseHTTPRequestHandler):
    server: ServingHTTPServer  # narrowed type

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # noqa: D102 — quiet by default
        if self.server.app.verbose:
            super().log_message(fmt, *args)

    def _send(self, body: bytes, content_type: str, status: int, close: bool) -> None:
        """Write status line, headers and body with one ``sendall``."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _send_json(self, payload: dict, status: int = 200, close: bool = False) -> None:
        self._send(json.dumps(payload).encode(), "application/json", status, close)

    def _send_text(self, text: str, status: int = 200) -> None:
        self._send(text.encode(), "text/plain; charset=utf-8", status, False)

    # -- GET ----------------------------------------------------------------

    def _wants_prometheus(self, query: dict) -> bool:
        """Content negotiation for ``/metrics``: JSON unless asked otherwise.

        Prometheus text exposition is selected by ``?format=prom`` (or
        ``prometheus``/``text``) or by an ``Accept`` header preferring
        ``text/plain`` (what Prometheus scrapers send) without also
        accepting JSON.  ``?format=json`` always forces JSON.
        """
        fmt = (query.get("format", [""])[0] or "").lower()
        if fmt in ("prom", "prometheus", "text"):
            return True
        if fmt:  # explicit json or unknown → JSON default
            return False
        accept = self.headers.get("Accept", "")
        return "text/plain" in accept and "application/json" not in accept

    def do_GET(self) -> None:  # noqa: N802 — stdlib API
        app = self.server.app
        parsed = urlparse(self.path)
        route = parsed.path
        if route == "/healthz":
            self._send_json(app.health(), 503 if app.draining else 200)
        elif route == "/metrics":
            app.refresh_metrics()
            if self._wants_prometheus(parse_qs(parsed.query)):
                self._send_text(app.metrics.prometheus())
            else:
                self._send_json(app.metrics.as_dict())
        elif route == "/stats":
            self._send_text(app.render_stats())
        else:
            self._send_json({"error": f"no such endpoint {self.path!r}"}, 404)

    # -- POST ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 — stdlib API
        t0 = time.perf_counter()
        if self.path != "/predict":
            self._send_json({"error": f"no such endpoint {self.path!r}"}, 404)
            return
        if self.server.app.draining:
            # Shutdown in progress: refuse before touching the pool so
            # clients get a clean retry signal instead of a mid-drain
            # connection error.
            self._send_json({"error": "server is draining"}, 503)
            return
        length = self._body_length()
        if length is None:
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json({"error": f"bad JSON body: {exc}"}, 400)
            return
        try:
            response = self._predict(payload, t0)
        except _ClientError as exc:
            self._send_json({"error": str(exc)}, 400)
        except Exception as exc:  # noqa: BLE001 — surfaced as HTTP 500
            self._send_json({"error": f"{type(exc).__name__}: {exc}"}, 500)
        else:
            self._send_json(response)
            self.server.app.metrics.histogram(
                "e2e_ms", "end-to-end /predict latency"
            ).observe((time.perf_counter() - t0) * 1000.0)

    def _body_length(self) -> int | None:
        """The request's ``Content-Length``, or ``None`` once refused.

        A refused body is never read, so the refusal closes the
        connection instead of parsing the unread bytes as a request.
        """
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self._send_json({"error": f"bad Content-Length {raw!r}"}, 400, close=True)
            return None
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self._send_json(
                {"error": f"body of {length} bytes exceeds {MAX_BODY_BYTES}"},
                413,
                close=True,
            )
            return None
        return length

    def _predict(self, payload: dict, t0: float) -> dict:
        app = self.server.app
        if not isinstance(payload, dict):
            raise _ClientError("request body must be a JSON object")
        raw = payload.get("inputs", payload.get("input"))
        if raw is None:
            raise _ClientError('missing "inputs" (N×C×H×W) or "input" (C×H×W)')
        try:
            arr = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _ClientError(f"inputs are not a numeric array: {exc}") from None
        if arr.ndim == 3:
            arr = arr[None]
        expected = app.session.input_shape
        if arr.ndim != 4 or arr.shape[1:] != expected:
            raise _ClientError(
                f"expected images of shape {tuple(expected)} "
                f"(got array of shape {arr.shape})"
            )
        if not np.isfinite(arr).all():
            raise _ClientError("inputs must be finite (got NaN or Inf)")

        # Mint the request's trace context here — the outermost point
        # that knows the request — and hand it to the backend so worker
        # threads and replica processes parent under this span.
        with trace.request_context(
            "serve.predict", batch=int(arr.shape[0])
        ) as (_sp, ctx):
            future = app.submit(arr, ctx=ctx)
            logits = future.result(timeout=PREDICT_TIMEOUT_SECONDS)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0

        response = {
            "predictions": [int(i) for i in logits.argmax(axis=1)],
            "batch": int(arr.shape[0]),
            "latency_ms": round(elapsed_ms, 3),
        }
        if payload.get("return_logits"):
            response["logits"] = logits.tolist()
        return response


class _ClientError(ValueError):
    """A 400-class request problem."""


__all__ = [
    "ServingHTTPServer",
    "ServeRequestHandler",
    "PREDICT_TIMEOUT_SECONDS",
    "MAX_BODY_BYTES",
]

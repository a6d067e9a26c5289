"""Closed- and open-loop HTTP load from one process.

Each loop runs ``conns`` threads (2 by default: one per usable core),
each owning one keep-alive ``http.client`` connection.  The client does
nothing to work around server behaviour: no ``Connection: close`` and
no socket options.

A sample records, in ``perf_counter`` seconds, when its request was due
(open loop), sent and answered, the local port and per-connection
sequence number (used to match the server's traced ``do_POST`` spans),
and whether the answer was correct.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np

perf = time.perf_counter

HEADERS = {"Content-Type": "application/json"}

#: Seconds a client waits for one response before counting it failed.
TIMEOUT_SECONDS = 30.0


def poisson_schedule(rate: float, count: int, seed: int) -> np.ndarray:
    """Arrival offsets (seconds from the start) of ``count`` Poisson arrivals."""
    rng = np.random.default_rng([seed, 2])
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


class Connection:
    """One keep-alive HTTP/1.1 connection, used by one thread at a time."""

    def __init__(self, port: int):
        self.port = port
        self._conn: http.client.HTTPConnection | None = None
        self.local_port = 0
        self.sent = 0  #: POSTs sent on the current socket

    def _open(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=TIMEOUT_SECONDS
            )
            self._conn.connect()
            self.local_port = self._conn.sock.getsockname()[1]
            self.sent = 0
        return self._conn

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        conn = self._open()
        try:
            conn.request(method, path, body=body, headers=HEADERS if body else {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def post(self, body: bytes, images: int) -> dict:
        """Send one /predict; the sample says whether it came back right."""
        self._open()
        sample = {"port": self.local_port, "seq": self.sent, "images": images}
        self.sent += 1
        sample["sent"] = perf()
        try:
            status, payload = self.request("POST", "/predict", body)
            sample["done"] = perf()
            sample["ok"] = status == 200 and len(json.loads(payload)["predictions"]) == images
        except (OSError, http.client.HTTPException, ValueError, KeyError):
            sample["done"] = perf()
            sample["ok"] = False
        return sample

    def get_json(self, path: str) -> dict:
        status, payload = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(payload)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _run_threads(target, conns: list[Connection]) -> None:
    errors: list[BaseException] = []

    def guarded(conn):
        try:
            target(conn)
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def closed_loop(conns: list[Connection], stream, seconds: float) -> tuple[list[dict], float]:
    """Each connection sends its next request as soon as the last returns.

    Returns the samples and the elapsed seconds from the start to the
    last answer.  Bodies are taken in order; the stream is sized so it
    is not used up, and is reused from the start if it is.
    """
    samples: list[dict] = []
    lock = threading.Lock()
    cursor = [0]
    start = perf()
    stop = start + seconds

    def worker(conn: Connection) -> None:
        while perf() < stop:
            with lock:
                i = cursor[0] % len(stream)
                cursor[0] += 1
            samples.append(conn.post(stream.bodies[i], stream.images[i]))

    _run_threads(worker, conns)
    return samples, max(s["done"] for s in samples) - start


def open_loop(conns: list[Connection], stream, offsets: np.ndarray) -> list[dict]:
    """Send request ``i`` at ``start + offsets[i]`` on whichever connection is free.

    Each sample carries ``due``; its latency is ``done - due``, so time
    spent waiting for a free connection counts against the server.
    ``lag`` is how late the request left after it was due *and* a
    connection was free, which measures the generator itself.
    """
    samples: list[dict] = []
    lock = threading.Lock()
    cursor = [0]
    start = perf() + 0.05

    def worker(conn: Connection) -> None:
        while True:
            free_at = perf()
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(offsets):
                return
            due = start + float(offsets[i])
            wait = due - perf()
            if wait > 0:
                time.sleep(wait)
            sample = conn.post(stream.bodies[i], stream.images[i])
            sample["due"] = due
            sample["lag"] = sample["sent"] - max(due, free_at)
            samples.append(sample)

    _run_threads(worker, conns)
    samples.sort(key=lambda s: s["due"])
    return samples


def latencies_ms(samples: list[dict]) -> list[float]:
    """Open-loop latency from the due time; a failed request is infinitely slow."""
    return [(s["done"] - s["due"]) * 1000.0 if s["ok"] else float("inf") for s in samples]

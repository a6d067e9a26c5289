"""Dynamic micro-batching: coalesce single requests into engine batches.

The quantized engine's cost is dominated by per-call fixed overhead
(im2col set-up, bit-plane GEMM dispatch), so running one image at a time
wastes most of the hardware.  The :class:`MicroBatcher` never holds a
request back waiting for company: a worker that asks for work takes up
to ``max_batch_size`` images of whatever is queued at that moment, in
FIFO order, and the stacked output rows are split back to per-request
futures.  Requests that arrive while every worker is busy queue up and
so still coalesce into the next batch; an idle worker serves a lone
request at once.

Thread model: any number of producer threads call :meth:`submit`; worker
threads call :meth:`next_batch` which blocks on a condition variable.
Shutdown wakes all waiters; queued requests are failed with
:class:`BatcherClosed` so no future is ever left dangling.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np


class BatcherClosed(RuntimeError):
    """Raised into futures whose requests were queued at shutdown."""


@dataclass
class _Request:
    """One in-flight request: ``n`` stacked images and their future."""

    inputs: np.ndarray  # (n, C, H, W)
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    #: The submitting request's trace context (or None) — carried so the
    #: worker's batch span can parent under the HTTP request span.
    ctx: object | None = None

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


@dataclass
class MicroBatch:
    """A coalesced batch handed to one worker."""

    requests: list[_Request]
    created_at: float = field(default_factory=time.perf_counter)

    @property
    def size(self) -> int:
        """Total images across the coalesced requests."""
        return sum(r.n for r in self.requests)

    def stack(self) -> np.ndarray:
        """Concatenate request inputs into one NCHW engine batch."""
        return np.concatenate([r.inputs for r in self.requests], axis=0)

    def queue_waits(self) -> list[float]:
        """Seconds each request spent queued before dispatch."""
        return [self.created_at - r.enqueued_at for r in self.requests]

    def trace_contexts(self) -> list:
        """Distinct non-None request trace contexts, in submit order."""
        out: list = []
        for r in self.requests:
            if r.ctx is not None and r.ctx not in out:
                out.append(r.ctx)
        return out

    def complete(self, outputs: np.ndarray) -> None:
        """Split stacked engine outputs back to per-request futures."""
        if outputs.shape[0] != self.size:
            self.fail(
                ValueError(
                    f"engine returned {outputs.shape[0]} rows for a "
                    f"batch of {self.size} images"
                )
            )
            return
        offset = 0
        for req in self.requests:
            rows = outputs[offset : offset + req.n]
            offset += req.n
            if not req.future.cancelled():
                req.future.set_result(rows)

    def fail(self, exc: BaseException) -> None:
        for req in self.requests:
            if not req.future.cancelled():
                req.future.set_exception(exc)


class MicroBatcher:
    """Thread-safe request queue with size-bounded coalescing.

    Parameters
    ----------
    max_batch_size:
        Most images one batch takes from the queue (a single request
        larger than this still rides alone).
    """

    def __init__(self, max_batch_size: int = 8):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.max_batch_size = max_batch_size
        self._queue: deque[_Request] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.submitted = 0   #: total requests accepted
        self.dispatched = 0  #: total batches handed to workers

    # -- producer side ------------------------------------------------------

    def submit(self, inputs: np.ndarray, ctx=None) -> Future:
        """Enqueue one request; returns a Future of its output rows.

        ``inputs`` may be a single image ``(C, H, W)`` or a small batch
        ``(n, C, H, W)``; the future resolves to the matching ``(n,
        num_classes)`` logits rows.  ``ctx`` is the request's optional
        :class:`~repro.obs.trace.TraceContext`, handed to the consuming
        worker for span parentage.
        """
        arr = np.asarray(inputs, dtype=np.float64)
        if arr.ndim == 3:
            arr = arr[None]
        if arr.ndim != 4:
            raise ValueError(
                f"expected (C,H,W) or (N,C,H,W) input, got shape {arr.shape}"
            )
        if arr.shape[0] == 0:
            raise ValueError("empty batch: expected at least one image")
        if not np.isfinite(arr).all():
            # Refused here, the bad request cannot fail its batch-mates.
            raise ValueError("inputs must be finite (got NaN or Inf)")
        req = _Request(arr, ctx=ctx)
        with self._cond:
            if self._closed:
                raise BatcherClosed("batcher is shut down")
            self._queue.append(req)
            self.submitted += 1
            self._cond.notify()
        return req.future

    # -- consumer side ------------------------------------------------------

    def next_batch(self, timeout: float | None = None) -> MicroBatch | None:
        """Block until a micro-batch is ready; ``None`` on shutdown/timeout.

        Coalescing policy: wait (up to ``timeout``) for the first request,
        then take, without waiting further, the queued requests that fit
        in ``max_batch_size`` images.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)

            requests: list[_Request] = []
            images = 0
            while self._queue and images < self.max_batch_size:
                # Never split one request across batches; oversize requests
                # ride alone (the engine caps nothing, only coalescing does).
                nxt = self._queue[0]
                if requests and images + nxt.n > self.max_batch_size:
                    break
                requests.append(self._queue.popleft())
                images += nxt.n
            self.dispatched += 1
            if self._queue:
                self._cond.notify()  # leftovers: wake another worker
            return MicroBatch(requests)

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """Close the queue; fail queued requests; wake all waiters."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            pending = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        exc = BatcherClosed("batcher shut down with requests still queued")
        for req in pending:
            if not req.future.cancelled():
                req.future.set_exception(exc)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def __len__(self) -> int:
        """Requests currently queued (not yet dispatched)."""
        with self._cond:
            return len(self._queue)


__all__ = ["MicroBatcher", "MicroBatch", "BatcherClosed"]

"""Low-overhead span tracer for the quantized-inference pipeline.

The paper's whole argument is about *where time goes* — sensitivity
prediction vs. result generation, predictor/executor pipeline balance,
PE idleness.  This module gives the repro first-class runtime visibility
into exactly that: nested, named **spans** with wall-clock timing,
attached attributes (layer name, batch size, …) and numeric counters
(MACs computed, MACs skipped, sensitive outputs).

Design constraints (in priority order):

1. **Near-zero cost when disabled.**  ``span(...)`` returns a shared
   no-op singleton when the tracer is off — no object allocation, no
   clock read, no lock.  Hot paths that want to skip even the keyword
   dict can guard with :func:`enabled`.
2. **Thread-correct.**  Span stacks are thread-local, so the serving
   worker pool's per-thread ``worker → engine.infer → engine.layer →
   odq.*`` nesting comes out right without any coordination; only the
   append of a *finished* span record takes a lock.
3. **Bounded memory.**  Finished spans go into a capped ring; overflow
   increments ``dropped`` instead of growing without bound under
   sustained serving traffic.

Usage::

    from repro.obs import trace

    with trace.span("odq.full_result", layer="C3:conv2") as sp:
        out = executor.full_result(x)
        sp.add("macs", n_macs)

    @trace.traced("accel.simulate")
    def simulate(...): ...

Enable globally with ``REPRO_TRACE=1`` in the environment, the CLI
``--trace`` flag, or :func:`enable` / :func:`Tracer.collect` from code.
Export finished spans with :mod:`repro.obs.exporters`.

Distributed tracing
-------------------

Spans parent through thread-local stacks, which stops at thread and
process boundaries.  A :class:`TraceContext` carries the identity of a
remote parent span — ``(trace_id, span_id, origin lane)``
— across those boundaries: the HTTP tier mints one per request with
:func:`request_context`, the batcher/router serialize it alongside the
work (:meth:`TraceContext.to_wire` is a picklable tuple, small enough
for the cluster control pipe), and the consuming thread or replica
process re-activates it with :func:`activate`.  While a context is
active, every new span records the ``trace_id`` and thread-root spans
record a ``parent_ref`` (``"<lane>:<span_id>"``) pointing at the remote
parent, which is how :mod:`repro.obs.collector` stitches spans from
many processes into one tree per request.  Each process names its lane
with :func:`set_process_lane` (``"router"``, ``"replica-0"``, …).
"""

from __future__ import annotations

import functools
import os
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Default cap on retained finished spans.
DEFAULT_MAX_SPANS = 200_000

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def _env_enabled(var: str = "REPRO_TRACE") -> bool:
    return os.environ.get(var, "").strip().lower() in _TRUTHY


#: Name of this process's lane in merged multi-process traces.  The
#: router/front-end process keeps the default; replicas call
#: :func:`set_process_lane` ("replica-<id>") right after spawn.
_PROCESS_LANE = "main"
_LANE_LOCK = threading.Lock()


def set_process_lane(name: str) -> None:
    """Name this process's lane in merged traces (e.g. ``replica-0``)."""
    global _PROCESS_LANE
    with _LANE_LOCK:
        _PROCESS_LANE = str(name)


def process_lane() -> str:
    """This process's lane name (``"main"`` unless set)."""
    return _PROCESS_LANE


def new_trace_id() -> str:
    """A fresh 16-hex-digit request trace id."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The identity of a remote parent span, picklable for transport.

    ``origin`` is the :func:`process_lane` of the process that owns
    ``span_id`` — together they name the parent globally, so a span
    opened in another thread or process can parent under it even though
    span ids are only unique per-process.
    """

    trace_id: str
    span_id: int
    origin: str

    def parent_ref(self) -> str:
        """Globally-unique reference to the parenting span."""
        return f"{self.origin}:{self.span_id}"

    def to_wire(self) -> tuple:
        """Plain-tuple form for pipes/pickles (see :meth:`from_wire`)."""
        return (self.trace_id, self.span_id, self.origin)

    @classmethod
    def from_wire(cls, wire: tuple | None) -> "TraceContext | None":
        if wire is None:
            return None
        return cls(str(wire[0]), int(wire[1]), str(wire[2]))

    def rebased(self, span_id: int, origin: str) -> "TraceContext":
        """The same trace, re-parented under a new local span.

        Used at hop points (router dispatch) so downstream spans parent
        under the hop's span instead of skipping a level.
        """
        return TraceContext(self.trace_id, span_id, origin)


@dataclass
class SpanRecord:
    """One finished span (immutable once emitted)."""

    name: str
    start_us: float          #: microseconds since the tracer epoch
    duration_us: float
    span_id: int
    parent_id: int | None
    depth: int               #: nesting depth within its thread (0 = root)
    thread_id: int
    thread_name: str
    attrs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us

    @property
    def duration_ms(self) -> float:
        return self.duration_us / 1000.0

    def as_dict(self) -> dict:
        """JSON-safe representation (the JSONL exporter row)."""
        return {
            "name": self.name,
            "start_us": round(self.start_us, 3),
            "duration_us": round(self.duration_us, 3),
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "attrs": self.attrs,
            "counters": self.counters,
        }


class _NoopSpan:
    """Shared do-nothing span: the disabled-tracer fast path.

    A single module-level instance is returned from every ``span()``
    call while tracing is off, so the disabled path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add(self, name: str, value: float = 1) -> None:
        pass

    def set(self, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """A live span; becomes a :class:`SpanRecord` on ``__exit__``."""

    __slots__ = ("_tracer", "name", "attrs", "counters", "span_id",
                 "parent_id", "depth", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.counters: dict = {}
        self.span_id = 0
        self.parent_id: int | None = None
        self.depth = 0
        self._start = 0.0

    def add(self, name: str, value: float = 1) -> None:
        """Accumulate a numeric counter on this span."""
        self.counters[name] = self.counters.get(name, 0) + value

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes after entry."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.depth = len(stack)
        self.span_id = tracer._next_id()
        ctx = tracer.current_context()
        if ctx is not None:
            attrs = self.attrs
            if "trace_id" not in attrs:
                attrs["trace_id"] = ctx.trace_id
            if self.parent_id is None and "parent_ref" not in attrs:
                # Thread-root span under an active context: parent to
                # the remote span the context names.
                attrs["parent_ref"] = ctx.parent_ref()
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        # Pop *this* span even if callers misnest (defensive).
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        thread = threading.current_thread()
        tracer._emit(SpanRecord(
            name=self.name,
            start_us=(self._start - tracer._epoch_perf) * 1e6,
            duration_us=(end - self._start) * 1e6,
            span_id=self.span_id,
            parent_id=self.parent_id,
            depth=self.depth,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            attrs=self.attrs,
            counters=self.counters,
        ))
        return False


class Tracer:
    """Collects spans from any number of threads into one bounded buffer."""

    def __init__(self, enabled: bool = False, max_spans: int = DEFAULT_MAX_SPANS):
        self._enabled = enabled
        self._max_spans = max_spans
        self._lock = threading.Lock()
        self._spans: deque[SpanRecord] = deque(maxlen=max_spans)
        self._local = threading.local()
        self._id_lock = threading.Lock()
        self._next_span_id = 0
        self.dropped = 0
        self._reset_epoch()

    # -- state ---------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def _reset_epoch(self) -> None:
        #: Wall-clock anchor so exported timestamps are absolute-ish while
        #: intra-trace deltas keep perf_counter resolution.
        self.epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()

    def reset(self) -> None:
        """Drop all finished spans and restart the trace epoch."""
        with self._lock:
            self._spans.clear()
            self.dropped = 0
        self._reset_epoch()

    # -- span creation -------------------------------------------------------

    def span(self, name: str, **attrs):
        """Context manager timing one named region (no-op when disabled)."""
        if not self._enabled:
            return NOOP_SPAN
        return _ActiveSpan(self, name, attrs)

    def traced(self, name: str | None = None, **attrs):
        """Decorator form of :meth:`span`."""
        def decorate(fn):
            span_name = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self._enabled:
                    return fn(*args, **kwargs)
                with self.span(span_name, **attrs):
                    return fn(*args, **kwargs)

            return wrapper
        return decorate

    def current(self) -> "_ActiveSpan | _NoopSpan":
        """The innermost live span on this thread (no-op span if none)."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return NOOP_SPAN
        return stack[-1]

    # -- trace-context propagation -------------------------------------------

    @contextmanager
    def activate(self, ctx: "TraceContext | None"):
        """Make ``ctx`` the active trace context on this thread.

        While active, new spans record the trace id and thread-root
        spans parent to the context's remote span (``parent_ref``).
        ``activate(None)`` is a no-op so call sites can pass optional
        contexts through unconditionally.
        """
        if ctx is None:
            yield None
            return
        stack = self._ctx_stack()
        stack.append(ctx)
        try:
            yield ctx
        finally:
            stack.pop()

    def current_context(self) -> "TraceContext | None":
        """The innermost active :class:`TraceContext` on this thread."""
        stack = getattr(self._local, "ctx", None)
        if not stack:
            return None
        return stack[-1]

    def _ctx_stack(self) -> list:
        stack = getattr(self._local, "ctx", None)
        if stack is None:
            stack = []
            self._local.ctx = stack
        return stack

    @contextmanager
    def collect(self, reset: bool = True):
        """Temporarily enable the tracer; yields the tracer itself.

        Restores the previous enabled/disabled state on exit.  Used by
        ``repro profile`` and the tests.
        """
        previous = self._enabled
        if reset:
            self.reset()
        self._enabled = True
        try:
            yield self
        finally:
            self._enabled = previous

    # -- plumbing ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> int:
        with self._id_lock:
            self._next_span_id += 1
            return self._next_span_id

    def _emit(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._spans) == self._max_spans:
                self.dropped += 1
            self._spans.append(record)

    # -- results -------------------------------------------------------------

    def spans(self) -> list[SpanRecord]:
        """Snapshot of finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[SpanRecord]:
        """Atomically take (and clear) all finished spans.

        The replica telemetry loop uses this to ship each span exactly
        once; the epoch is deliberately left untouched so drained
        batches stay on one timeline.
        """
        with self._lock:
            out = list(self._spans)
            self._spans.clear()
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: The process-wide tracer; ``REPRO_TRACE=1`` turns it on at import time.
_GLOBAL = Tracer(enabled=_env_enabled())


def get_tracer() -> Tracer:
    return _GLOBAL


def enabled() -> bool:
    """Fast guard for hot paths that want to skip span kwargs entirely."""
    return _GLOBAL._enabled


def enable() -> None:
    _GLOBAL.enable()


def disable() -> None:
    _GLOBAL.disable()


def reset() -> None:
    _GLOBAL.reset()


def span(name: str, **attrs):
    """Module-level :meth:`Tracer.span` on the global tracer."""
    if not _GLOBAL._enabled:
        return NOOP_SPAN
    return _ActiveSpan(_GLOBAL, name, attrs)


def traced(name: str | None = None, **attrs):
    """Module-level :meth:`Tracer.traced` on the global tracer."""
    return _GLOBAL.traced(name, **attrs)


def current():
    """Innermost live span on the calling thread (global tracer)."""
    return _GLOBAL.current()


def collect(reset: bool = True):
    """Module-level :meth:`Tracer.collect` on the global tracer."""
    return _GLOBAL.collect(reset=reset)


def spans() -> list[SpanRecord]:
    return _GLOBAL.spans()


def drain() -> list[SpanRecord]:
    """Module-level :meth:`Tracer.drain` on the global tracer."""
    return _GLOBAL.drain()


def activate(ctx: TraceContext | None):
    """Module-level :meth:`Tracer.activate` on the global tracer."""
    return _GLOBAL.activate(ctx)


def current_context() -> TraceContext | None:
    """Module-level :meth:`Tracer.current_context` on the global tracer."""
    return _GLOBAL.current_context()


@contextmanager
def request_context(name: str, **attrs):
    """Mint and activate a fresh request trace: the trace-tree root.

    Opens a root span ``name`` (tagged ``trace_root`` so the collector
    can tell genuine roots from orphans), builds a :class:`TraceContext`
    parenting to it, and activates the context for the block.  Yields
    ``(span, ctx)``; when tracing is disabled both the span and the
    context are no-ops (``NOOP_SPAN``, ``None``) and nothing is minted.
    """
    if not _GLOBAL._enabled:
        yield NOOP_SPAN, None
        return
    tid = new_trace_id()
    with span(name, trace_id=tid, trace_root=True, **attrs) as sp:
        ctx = TraceContext(tid, sp.span_id, process_lane())
        with _GLOBAL.activate(ctx):
            yield sp, ctx


__all__ = [
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "NOOP_SPAN",
    "DEFAULT_MAX_SPANS",
    "get_tracer",
    "enabled",
    "enable",
    "disable",
    "reset",
    "span",
    "traced",
    "current",
    "collect",
    "spans",
    "drain",
    "activate",
    "current_context",
    "request_context",
    "new_trace_id",
    "set_process_lane",
    "process_lane",
]

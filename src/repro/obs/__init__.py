"""`repro.obs` — tracing, structured logging, and phase-level profiling.

The observability subsystem for the ODQ reproduction:

* :mod:`repro.obs.trace` — low-overhead span tracer (thread-local
  stacks, counters, global no-op fast path; ``REPRO_TRACE=1``);
* :mod:`repro.obs.log` — structured logging (human or JSON lines;
  ``REPRO_LOG_LEVEL`` / ``REPRO_LOG_JSON``), plus :func:`console` for
  user-facing CLI output;
* :mod:`repro.obs.hist` — the reservoir :class:`Histogram` shared with
  ``repro.serve.metrics``;
* :mod:`repro.obs.exporters` — JSONL, Chrome trace-event JSON,
  Prometheus text exposition, ASCII rollup;
* :mod:`repro.obs.drift` — EWMA drift monitor for per-layer sensitivity
  vs the warm-up baseline (imported lazily by the serving tier);
* :mod:`repro.obs.profile` — per-layer per-phase profiling behind
  ``repro profile`` (imported lazily; not re-exported here to keep
  ``repro.core`` → ``repro.obs`` import edges acyclic).

See ``docs/observability.md`` for the full guide.
"""

from repro.obs import exporters, log, trace
from repro.obs.hist import DEFAULT_RESERVOIR, Histogram
from repro.obs.log import configure, console, get_logger
from repro.obs.trace import get_tracer, span, traced

__all__ = [
    "trace",
    "log",
    "exporters",
    "Histogram",
    "DEFAULT_RESERVOIR",
    "configure",
    "console",
    "get_logger",
    "get_tracer",
    "span",
    "traced",
]

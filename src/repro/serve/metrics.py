"""Serving metrics: thread-safe counters, gauges, and histograms.

A tiny dependency-free registry in the spirit of Prometheus client
libraries.  Histograms keep a bounded reservoir of recent observations so
percentiles (p50/p95/p99) stay cheap and memory-bounded under sustained
traffic; counts/sums are exact over the full lifetime.  The
:class:`Histogram` type itself lives in :mod:`repro.obs.hist` (the
profiler reuses it) and is re-exported here for back-compat.

The registry renders three ways:

* :meth:`MetricsRegistry.as_dict` — JSON-safe dict for the ``/metrics``
  HTTP endpoint and programmatic scraping;
* :meth:`MetricsRegistry.prometheus` — Prometheus text exposition
  (``/metrics?format=prom`` or ``Accept: text/plain``);
* :meth:`MetricsRegistry.render` — ASCII tables (via
  :func:`repro.utils.report.ascii_table`) for ``/stats`` and the CLI.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.hist import DEFAULT_RESERVOIR, Histogram
from repro.utils.report import ascii_table


class Counter:
    """Monotonic counter."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Last-write-wins scalar (e.g. per-layer mask density)."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class MetricsRegistry:
    """Named collection of counters/gauges/histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create, so call sites
    never race on registration; creation is idempotent per name.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: "OrderedDict[str, Counter]" = OrderedDict()
        self._gauges: "OrderedDict[str, Gauge]" = OrderedDict()
        self._histograms: "OrderedDict[str, Histogram]" = OrderedDict()

    # -- get-or-create ------------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name, help)
            return self._counters[name]

    def gauge(self, name: str, help: str = "") -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name, help)
            return self._gauges[name]

    def histogram(
        self, name: str, help: str = "", reservoir: int = DEFAULT_RESERVOIR
    ) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, help, reservoir)
            return self._histograms[name]

    # -- export -------------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-safe snapshot: ``{counters:{}, gauges:{}, histograms:{}}``."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {c.name: c.value for c in counters},
            "gauges": {g.name: g.value for g in gauges},
            "histograms": {h.name: h.summary() for h in histograms},
        }

    def help_texts(self) -> dict:
        """``{raw metric name: help string}`` for every named metric.

        Keys keep their embedded labels (``sensitive_ratio:<layer>``);
        the Prometheus exporter resolves them per family when emitting
        ``# HELP`` metadata.
        """
        with self._lock:
            metrics = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        return {m.name: m.help for m in metrics if m.help}

    def prometheus(self, namespace: str = "repro") -> str:
        """Prometheus text exposition of the whole registry.

        Counters render as ``counter`` (``_total`` suffix enforced),
        gauges as ``gauge``, histograms as ``summary`` with
        p50/p95/p99 quantile series.  Colon-labeled names such as
        ``sensitive_ratio:<layer>`` become a ``layer`` label.  Each
        family carries ``# HELP``/``# TYPE`` metadata from the help
        strings given at metric creation.
        """
        from repro.obs.exporters import prometheus_text

        return prometheus_text(
            self.as_dict(), namespace=namespace, help_texts=self.help_texts()
        )

    def render(self, title: str = "serving metrics") -> str:
        """ASCII tables of the whole registry (the ``/stats`` body)."""
        snap = self.as_dict()
        parts = []
        scalar_rows = [[k, f"{v:,}"] for k, v in snap["counters"].items()]
        scalar_rows += [[k, f"{v:.4f}"] for k, v in snap["gauges"].items()]
        if scalar_rows:
            parts.append(ascii_table(["metric", "value"], scalar_rows, title=title))
        hist_rows = [
            [
                name,
                f"{s['count']:,}",
                f"{s['mean']:.3f}",
                f"{s['p50']:.3f}",
                f"{s['p95']:.3f}",
                f"{s['p99']:.3f}",
                f"{s['max']:.3f}",
            ]
            for name, s in snap["histograms"].items()
        ]
        if hist_rows:
            parts.append(
                ascii_table(
                    ["histogram", "count", "mean", "p50", "p95", "p99", "max"],
                    hist_rows,
                )
            )
        return "\n\n".join(parts) if parts else "(no metrics recorded)"


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_RESERVOIR",
]

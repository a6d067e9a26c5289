"""Trace and metrics exporters.

Four output formats, all dependency-free:

* :func:`spans_to_jsonl` / :func:`write_jsonl` — one JSON object per
  finished span per line, for offline analysis (``jq``-friendly);
* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome trace-event
  JSON (complete "X" events) that loads directly in ``chrome://tracing``
  / Perfetto;
* :func:`prometheus_text` — Prometheus text exposition (version 0.0.4)
  of a :class:`~repro.serve.metrics.MetricsRegistry` snapshot, used by
  the serving ``/metrics?format=prom`` endpoint;
* :func:`ascii_rollup` — terminal flame-style rollup of a span list
  (aggregated call tree with total/self time).
"""

from __future__ import annotations

import json
import re
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.trace import SpanRecord

# -- JSONL --------------------------------------------------------------------


def spans_to_jsonl(spans: Iterable[SpanRecord]) -> str:
    """One JSON object per span per line (trailing newline included)."""
    lines = [json.dumps(s.as_dict(), separators=(",", ":")) for s in spans]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(spans: Iterable[SpanRecord], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(spans_to_jsonl(spans))
    return path


# -- Chrome trace-event format ------------------------------------------------


def chrome_trace(spans: Iterable[SpanRecord], process_name: str = "repro") -> dict:
    """Chrome ``chrome://tracing`` trace-event JSON (complete events).

    Timestamps/durations are microseconds (the format's native unit), so
    span ``start_us``/``duration_us`` map through directly.  Thread names
    are attached via ``thread_name`` metadata events so worker threads
    show up labeled in the timeline.
    """
    events: list[dict] = []
    seen_threads: dict[int, str] = {}
    for s in spans:
        if s.thread_id not in seen_threads:
            seen_threads[s.thread_id] = s.thread_name
        args = dict(s.attrs)
        if s.counters:
            args.update(s.counters)
        events.append({
            "name": s.name,
            "ph": "X",
            "ts": s.start_us,
            "dur": s.duration_us,
            "pid": 1,
            "tid": s.thread_id,
            "args": args,
        })
    meta = [{
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "args": {"name": process_name},
    }]
    meta.extend({
        "name": "thread_name",
        "ph": "M",
        "pid": 1,
        "tid": tid,
        "args": {"name": tname},
    } for tid, tname in seen_threads.items())
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    spans: Iterable[SpanRecord], path: str | Path, process_name: str = "repro"
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans, process_name)))
    return path


# -- Prometheus text exposition ----------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, namespace: str) -> str:
    clean = _NAME_RE.sub("_", name)
    if namespace and not clean.startswith(namespace + "_"):
        clean = f"{namespace}_{clean}"
    return clean


def _split_labeled(name: str) -> tuple[str, dict]:
    """Extract the layer label from a registry metric name.

    ``"base:rest"`` names a per-layer series:
    ``sensitive_ratio:C1:features.0`` → ``{"layer": "C1:features.0"}``.
    """
    if ":" in name:
        base, layer = name.split(":", 1)
        return base, {"layer": layer}
    return name, {}


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in labels.items())
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape_help(text: str) -> str:
    """Escape a HELP string per the exposition format (`\\` and newline)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def prometheus_text(snapshot, namespace: str = "repro",
                    help_texts: dict | None = None) -> str:
    """Render a metrics snapshot as Prometheus text exposition format.

    ``snapshot`` is either a ``MetricsRegistry``-like object exposing
    ``as_dict()`` or the dict itself (``{"counters": {}, "gauges": {},
    "histograms": {name: summary}}``).  Histograms render as Prometheus
    *summaries* (quantile series + ``_sum`` / ``_count``).  Colon-labeled
    names (``sensitive_ratio:<layer>``) become a ``layer`` label.

    ``help_texts`` maps *raw registry names* (labels still embedded) to
    help strings; each family's first non-empty help renders as a
    ``# HELP`` line immediately before its ``# TYPE``.
    """
    if hasattr(snapshot, "help_texts") and help_texts is None:
        help_texts = snapshot.help_texts()
    if hasattr(snapshot, "as_dict"):
        snapshot = snapshot.as_dict()
    help_texts = help_texts or {}
    out: list[str] = []
    typed: "OrderedDict[str, str]" = OrderedDict()

    def header(name: str, kind: str, *keys: str) -> None:
        if typed.get(name) != kind:
            help_text = next(
                (help_texts[k] for k in keys if help_texts.get(k)), ""
            )
            if help_text:
                out.append(f"# HELP {name} {_escape_help(help_text)}")
            out.append(f"# TYPE {name} {kind}")
            typed[name] = kind

    for name, value in snapshot.get("counters", {}).items():
        base, labels = _split_labeled(name)
        pname = _prom_name(base, namespace)
        if not pname.endswith("_total"):
            pname += "_total"
        header(pname, "counter", name, base)
        out.append(f"{pname}{_labels(labels)} {_fmt(value)}")

    for name, value in snapshot.get("gauges", {}).items():
        base, labels = _split_labeled(name)
        pname = _prom_name(base, namespace)
        header(pname, "gauge", name, base)
        out.append(f"{pname}{_labels(labels)} {_fmt(value)}")

    for name, summary in snapshot.get("histograms", {}).items():
        base, labels = _split_labeled(name)
        pname = _prom_name(base, namespace)
        header(pname, "summary", name, base)
        for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            qlabels = dict(labels)
            qlabels["quantile"] = q
            out.append(f"{pname}{_labels(qlabels)} {_fmt(summary.get(key, 0.0))}")
        out.append(f"{pname}_sum{_labels(labels)} {_fmt(summary.get('sum', 0.0))}")
        out.append(f"{pname}_count{_labels(labels)} {_fmt(summary.get('count', 0))}")

    return "\n".join(out) + ("\n" if out else "")


# -- ASCII rollup -------------------------------------------------------------


def _aggregate_paths(spans: Sequence[SpanRecord]) -> "OrderedDict[tuple, dict]":
    """Aggregate spans by call path (root→…→name), summing time/calls."""
    by_id = {s.span_id: s for s in spans}

    def path_of(s: SpanRecord) -> tuple:
        names: list[str] = []
        node: SpanRecord | None = s
        guard = 0
        while node is not None and guard < 64:
            names.append(node.name)
            node = by_id.get(node.parent_id) if node.parent_id else None
            guard += 1
        return tuple(reversed(names))

    agg: "OrderedDict[tuple, dict]" = OrderedDict()
    for s in sorted(spans, key=lambda s: (s.depth, s.start_us)):
        key = path_of(s)
        slot = agg.setdefault(key, {"calls": 0, "total_us": 0.0, "child_us": 0.0})
        slot["calls"] += 1
        slot["total_us"] += s.duration_us
        if len(key) > 1:
            parent = agg.get(key[:-1])
            if parent is not None:
                parent["child_us"] += s.duration_us
    return agg


def ascii_rollup(spans: Sequence[SpanRecord], width: int = 40) -> str:
    """Flame-style aggregated call tree with total/self time per path."""
    if not spans:
        return "(no spans recorded)"
    agg = _aggregate_paths(spans)
    total = sum(v["total_us"] for k, v in agg.items() if len(k) == 1) or 1.0
    # Depth-first ordering of paths.
    ordered = sorted(agg.items(), key=lambda kv: kv[0])
    lines = [f"{'span':<48} {'calls':>7} {'total ms':>10} {'self ms':>10}  share"]
    lines.append("-" * len(lines[0]))
    for path, stats in ordered:
        indent = "  " * (len(path) - 1)
        label = f"{indent}{path[-1]}"
        self_us = max(stats["total_us"] - stats["child_us"], 0.0)
        share = stats["total_us"] / total
        bar = "#" * max(1, int(round(share * width))) if share > 0.004 else ""
        lines.append(
            f"{label:<48} {stats['calls']:>7} "
            f"{stats['total_us'] / 1000.0:>10.3f} {self_us / 1000.0:>10.3f}  {bar}"
        )
    return "\n".join(lines)


__all__ = [
    "spans_to_jsonl",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "ascii_rollup",
]

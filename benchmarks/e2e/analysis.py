"""Arithmetic of the end-to-end benchmark, kept free of I/O so it can be tested.

* percentiles under the sample-count rule (a percentile is reported only
  when at least ten samples lie beyond it);
* metric-name sanitising;
* the per-request reconciliation of the client round trip against the
  traced server spans, and the per-layer metrics built from the spans;
* the verdicts of ``run.py compare``.
"""

from __future__ import annotations

import math
import re
import statistics

#: The tail percentile of the per-layer metrics.  The open loop gets half
#: of ``run_seconds``, which at the workloads' arrival rates gives 105-300
#: requests: enough for p90 (needs 100) on every workload, not for p99
#: (needs 1000) on any.
TAIL = 90

#: Candidates for the reported end-to-end tail, highest first.
TAIL_LADDER = (99, 95, 90, 80)


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def min_samples(q: float) -> int:
    """Smallest sample count with at least ten samples beyond ``p<q>``."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(1000.0 / (100.0 - q) - 1e-9)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``p<q>``; ``inf`` samples (failed requests) sort last.

    Raises :class:`TooFewSamples` below :func:`min_samples`.
    """
    data = sorted(values)
    need = min_samples(q)
    if len(data) < need:
        raise TooFewSamples(f"p{q:g} needs >= {need} samples, got {len(data)}")
    rank = q / 100.0 * (len(data) - 1)
    lo = int(rank)
    frac = rank - lo
    if frac == 0.0 or lo + 1 >= len(data):
        return data[lo]
    if math.isinf(data[lo + 1]):
        return math.inf
    return data[lo] + (data[lo + 1] - data[lo]) * frac


def tail(values) -> tuple[int, float] | None:
    """``(q, p<q>)`` for the highest ``q`` of :data:`TAIL_LADDER` the
    sample supports, or ``None`` when it supports none of them."""
    values = list(values)
    for q in TAIL_LADDER:
        if len(values) >= min_samples(q):
            return q, percentile(values, q)
    return None


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


_NAME_OK = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def metric_name(raw: str) -> str:
    """Map ``raw`` onto the metric-name alphabet (letters, digits, ``_.-``).

    Runs of other characters become one ``_``; leading separators are
    dropped.  Raises ``ValueError`` when nothing usable is left or the
    name exceeds 64 characters.
    """
    name = re.sub(r"[^A-Za-z0-9_.-]+", "_", raw).lstrip("_.-")
    if not _NAME_OK.fullmatch(name):
        raise ValueError(f"cannot make a metric name of {raw!r}")
    return name


def layer_index(layer: str) -> int:
    """Engine layer names are ``C<i+1>:<module path>``; return ``i``."""
    head = layer.split(":", 1)[0]
    if not re.fullmatch(r"C[1-9][0-9]*", head):
        raise ValueError(f"not an engine layer name: {layer!r}")
    return int(head[1:]) - 1


def layer_metric(index: int) -> str:
    return metric_name(f"odq.layer{index:02d}_ms")


# -- reconciliation -----------------------------------------------------------


def reconcile(rtt, dopost, decode, queue_wait, infer, respond) -> tuple[float, float]:
    """Split one request's client round trip; returns ``(transport, residual)``.

    ``transport`` is the round trip minus the server's ``do_POST``
    duration; ``residual`` is what the named parts leave unexplained::

        residual = rtt - (decode + queue_wait + infer + respond + transport)
    """
    transport = rtt - dopost
    residual = rtt - (decode + queue_wait + infer + respond + transport)
    return transport, residual


def match_requests(client, server) -> list[tuple[dict, dict]]:
    """Pair client samples with traced ``do_POST`` spans.

    One keep-alive connection is served by one handler thread in order,
    so the ``k``-th POST the client sent on local port ``p`` is the
    ``k``-th ``do_POST`` the server saw from peer port ``p``.
    """
    by_port: dict[int, list[dict]] = {}
    for span in server:
        by_port.setdefault(span["port"], []).append(span)
    for spans in by_port.values():
        spans.sort(key=lambda s: s["t0"])
    pairs = []
    for sample in client:
        spans = by_port.get(sample["port"], [])
        if sample["seq"] < len(spans):
            pairs.append((sample, spans[sample["seq"]]))
    return pairs


def _p(values, q, scale=1000.0) -> float:
    return percentile(values, q) * scale if values else 0.0


def _delta(m0: dict, m1: dict, kind: str, name: str, field: str | None = None) -> float:
    a = m0.get(kind, {}).get(name, 0.0)
    b = m1.get(kind, {}).get(name, 0.0)
    if field is not None:
        a = a[field] if a else 0.0
        b = b[field] if b else 0.0
    return float(b) - float(a)


def scrape_metrics(m0: dict, m1: dict, wall: float, workers: int) -> dict:
    """Per-layer counts from two ``/metrics`` snapshots around the open loop.

    Counters, histogram counts/sums and cumulative gauges are differenced,
    so set-up traffic does not leak in.
    """
    out = {}
    batches = _delta(m0, m1, "histograms", "batch_size", "count")
    images = _delta(m0, m1, "histograms", "batch_size", "sum")
    out["batcher.images_per_batch"] = images / batches if batches else 0.0
    infer_s = _delta(m0, m1, "histograms", "infer_ms", "sum") / 1000.0
    out["worker.busy_frac"] = infer_s / (wall * workers) if wall > 0 else 0.0

    totals = {"rows_total": 0.0, "rows_computed": 0.0, "sparse": 0.0, "dense": 0.0}
    for name in m1.get("gauges", {}):
        kind, _, _layer = name.partition(":")
        key = {
            "exec_rows_total": "rows_total",
            "exec_rows_computed": "rows_computed",
            "exec_path_calls_sparse": "sparse",
            "exec_path_calls_dense": "dense",
        }.get(kind)
        if key is not None:
            totals[key] += _delta(m0, m1, "gauges", name)
    out["odq.rows_computed_frac"] = (
        totals["rows_computed"] / totals["rows_total"] if totals["rows_total"] else 0.0
    )
    calls = totals["sparse"] + totals["dense"]
    out["odq.sparse_call_frac"] = totals["sparse"] / calls if calls else 0.0
    return out


def traced_metrics(spans: dict, client: list[dict], window: tuple[float, float],
                   ready_at: float) -> dict:
    """Per-layer metrics of one traced open loop.

    ``client`` holds the traced phase's samples (``port``, ``seq``,
    ``sent``, ``done``, ``ok``); ``window`` is its ``(start, end)`` and
    ``ready_at`` the end of the server's set-up, in ``perf_counter``
    seconds.  Timings are milliseconds.  Percentiles are
    over requests (``worker.infer_ms``: the engine time of the batch each
    request rode in), so every one has the open loop's sample count;
    ``odq.*`` and ``gemm.*`` are per image, summed over layers.
    """
    w0, w1 = window

    def inside(t):
        return w0 <= t <= w1

    pairs = [(c, s) for c, s in match_requests(client, spans["requests"]) if c["ok"]]
    decode, respond, transport, queue, infer_ms, residual = ([] for _ in range(6))
    for c, s in pairs:
        rtt = c["done"] - c["sent"]
        dopost = s["t1"] - s["t0"]
        dec = s["submit"] - s["t0"]
        resp = s["t1"] - s["complete"]
        tr, res = reconcile(rtt, dopost, dec, s["queue_wait"], s["infer"], resp)
        decode.append(dec)
        respond.append(resp)
        transport.append(tr)
        queue.append(s["queue_wait"])
        infer_ms.append(s["infer"])
        residual.append(res)

    infer = [(t0, t1, n) for t0, t1, n in spans["infer"] if inside(t0)]
    images = sum(n for _, _, n in infer)
    per_image = 1000.0 / images if images else 0.0
    conv = [c for c in spans["conv"] if inside(c[0])]
    sums = [sum(c[i] for c in conv) for i in range(2, 9)]
    total, prep, predict, mask, full, d_sens, d_out = sums
    plan_runs = [r for r in spans["plan_runs"] if inside(r[0])]
    gemm_calls = [g for g in spans["gemm"] if inside(g[0])]
    census = [c[1] for c in spans["census"] if inside(c[0])]
    stats = spans.get("gemm_stats", {})
    calls = stats.get("calls", 0)

    out = {
        "http.decode_ms.p50": _p(decode, 50),
        "http.respond_ms.p50": _p(respond, 50),
        "http.transport_ms.p50": _p(transport, 50),
        f"http.transport_ms.p{TAIL}": _p(transport, TAIL),
        "batcher.queue_wait_ms.p50": _p(queue, 50),
        f"batcher.queue_wait_ms.p{TAIL}": _p(queue, TAIL),
        "worker.infer_ms.p50": _p(infer_ms, 50),
        f"worker.infer_ms.p{TAIL}": _p(infer_ms, TAIL),
        "worker.census_ms.p50": _p(census, 50),
        "plan.infer_ms.p50": _p([r[1] for r in plan_runs], 50),
        "plan.nonconv_ms.p50": _p([r[1] - r[2] for r in plan_runs], 50),
        "plan.compiles_after_setup": float(sum(1 for t in spans["compiles"] if t >= ready_at)),
        "odq.prep_ms": prep * per_image,
        "odq.predict_ms": predict * per_image,
        "odq.mask_ms": mask * per_image,
        "odq.full_ms": full * per_image,
        "odq.self_ms": (total - prep - predict - mask - full) * per_image,
        "odq.sensitive_ratio": d_sens / d_out if d_out else 0.0,
        "gemm.ms": sum(g[1] for g in gemm_calls) * per_image,
        "gemm.calls": len(gemm_calls) * per_image / 1000.0,
        "gemm.pooled_frac": (
            (stats.get("pooled_calls", 0) + stats.get("col_calls", 0)) / calls if calls else 0.0
        ),
        "residual_ms.p50": _p(residual, 50),
        "matched_requests": float(len(pairs)),
    }
    for index in sorted({c[1] for c in conv}):
        out[layer_metric(index)] = sum(c[2] for c in conv if c[1] == index) * per_image
    return out


# -- compare ------------------------------------------------------------------


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """Judge one (workload, metric) pair of run sets.

    ``parent``/``change`` map seed → value.  Rules:

    * ``better``: the change wins at least 9/10 of the pairs (paired by
      seed, ties count for neither) and the medians differ by more than
      the parent's interquartile distance;
    * ``unresolved``: either side's spread exceeds the bound, unless
      every change run reads better than every parent run;
    * ``worse``: the change's median is worse than the parent's by more
      than the bound;
    * ``within bound`` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    a = list(parent.values())
    b = list(change.values())
    q1a, ma, q3a = quartiles(a)
    _, mb, _ = quartiles(b)
    seeds = sorted(set(parent) & set(change))
    pairs = [(parent[s], change[s]) for s in seeds] or list(zip(sorted(a), sorted(b)))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gain = sign * (mb - ma)
    if pairs and wins >= 0.9 * len(pairs) and gain > (q3a - q1a):
        return "better"
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    worse_by = -gain / abs(ma) if ma else (math.inf if gain < 0 else 0.0)
    if worse_by > bound:
        return "worse"
    return "within bound"

"""Distributed-tracing overhead on the replica cluster serving path.

Runs the same mixed-size request sweep through two 2-replica
:class:`repro.cluster.ClusterPool` instances — one spawned with the
tracer enabled and a :class:`repro.obs.collector.TelemetryCollector`
attached, one with tracing off — and compares throughput.  Timing is
interleaved min-of-N (every round times both pools once, tracing toggled
in the submitting process to match each pool's replicas) so load spikes
hit both configurations equally.  The BLAS is pinned to 1 thread, as
in ``bench_cluster_scaling.py``.

Artefacts: ``BENCH_cluster_trace_overhead.json`` at the repo root,
``results/cluster_trace_overhead.txt``, and
``results/cluster_trace_sample.json`` — the merged multi-process Chrome
trace from the traced run (CI uploads it).  ``--check`` enforces:

* trace integrity — unconditional: the merged timeline has **zero
  orphan spans**, and every request trace forms a single tree (exactly
  one ``trace_root``) that reaches at least one replica lane;
* drift coverage — unconditional: the drift monitor fed by the
  collector holds a gauge-backed snapshot for every layer the replicas
  sampled;
* overhead — throughput with tracing + telemetry collection must be
  within ``2%`` of tracing-off, enforced only when the host exposes
  >= 2 usable cores (a 1-core container timeshares the replicas and the
  telemetry I/O, so the ratio is dominated by scheduling noise; the
  JSON then records ``gate_enforced: false`` with the reason, and CI
  runners — which do have the cores — enforce it).

Run standalone (CI): ``PYTHONPATH=src python benchmarks/bench_cluster_trace_overhead.py --check``
Or under pytest with the rest of the harness: ``pytest benchmarks/bench_cluster_trace_overhead.py``
"""

from __future__ import annotations

import os

# Pin BLAS-internal threading *before* numpy loads its BLAS: the
# overhead ratio is meaningless if OpenBLAS fans out nondeterministically.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_cluster_trace_overhead.json"

REPLICAS = 2
OVERHEAD_GATE = 0.02      #: max allowed traced-vs-untraced slowdown
GATE_MIN_CORES = 2        #: cores required before the overhead gate applies
N_REQUESTS = 16           #: requests per timed round
MAX_BATCH = 8             #: chunk size — also the request-size spread


def _serve_config():
    from repro.serve.config import ServeConfig

    return ServeConfig(
        model="lenet",
        scheme="odq",
        dataset="mnist",
        train_epochs=0,
        calib_images=32,
        max_batch_size=MAX_BATCH,
        replicas=REPLICAS,
        port=0,
    )


def _requests(session, rng: np.random.Generator) -> list[np.ndarray]:
    """Mixed-size request batches, some spanning multiple chunks."""
    base = session.sample_inputs
    out = []
    for _ in range(N_REQUESTS):
        n = int(rng.integers(1, MAX_BATCH + 2))  # 1 .. MAX_BATCH+1 images
        idx = rng.integers(0, base.shape[0], size=n)
        out.append(np.ascontiguousarray(base[idx], dtype=np.float64))
    return out


def _traced_sweep(pool, reqs, trace) -> float:
    """One traced round: mint a TraceContext per request, time the sweep."""
    t0 = time.perf_counter()
    futs = []
    for arr in reqs:
        with trace.request_context(
            "bench.request", batch=int(arr.shape[0])
        ) as (_sp, ctx):
            futs.append(pool.submit(arr, ctx=ctx))
    for f in futs:
        f.result(timeout=300.0)
    return time.perf_counter() - t0


def _plain_sweep(pool, reqs) -> float:
    t0 = time.perf_counter()
    futs = [pool.submit(a) for a in reqs]
    for f in futs:
        f.result(timeout=300.0)
    return time.perf_counter() - t0


def run(check: bool = False, repeats: int = 3) -> int:
    from repro.cluster import ClusterPool
    from repro.obs import trace
    from repro.obs.collector import TelemetryCollector, trace_trees
    from repro.obs.drift import DriftMonitor
    from repro.serve.session import ModelSession
    from repro.serve.metrics import MetricsRegistry
    from repro.utils.host import usable_cores
    from repro.utils.report import ascii_table

    cores = usable_cores()
    rng = np.random.default_rng(0x70D)
    config = _serve_config()

    trace.disable()
    session = ModelSession(config)  # request images + drift baseline
    reqs = _requests(session, rng)
    total_images = sum(r.shape[0] for r in reqs)

    metrics = MetricsRegistry()
    drift = DriftMonitor(metrics=metrics)
    collector = TelemetryCollector(metrics=metrics, drift=drift)

    elapsed = {"traced": [], "untraced": []}
    try:
        # Replicas snapshot trace enablement at spawn: enable before the
        # traced pool comes up, disable before the untraced one does.
        trace.enable()
        traced_pool = ClusterPool(
            config,
            input_shape=session.input_shape,
            num_classes=session.num_classes,
            metrics=metrics,
            collector=collector,
        )
        traced_pool.start()
        trace.disable()
        plain_pool = ClusterPool(
            config,
            input_shape=session.input_shape,
            num_classes=session.num_classes,
        )
        plain_pool.start()
        for pool, name in ((traced_pool, "traced"), (plain_pool, "untraced")):
            if not pool.wait_ready(timeout=300.0):
                print(f"FATAL: {name} pool failed to come up", file=sys.stderr)
                return 1

        for rnd in range(repeats + 1):  # round 0 is warm-up
            trace.enable()
            dt_traced = _traced_sweep(traced_pool, reqs, trace)
            trace.disable()
            dt_plain = _plain_sweep(plain_pool, reqs)
            if rnd > 0:
                elapsed["traced"].append(dt_traced)
                elapsed["untraced"].append(dt_plain)
    finally:
        # Shutdown drains the replicas, which forces their final
        # telemetry ship before the drained ack — do it before judging
        # the merged trace.
        trace.enable()   # keep local lane attribution for the final merge
        traced_pool.shutdown()
        trace.disable()
        plain_pool.shutdown()

    best = {k: min(v) for k, v in elapsed.items()}
    throughput = {k: total_images / v for k, v in best.items()}
    overhead = best["traced"] / best["untraced"] - 1.0

    # -- trace integrity -----------------------------------------------------
    merged = collector.merged()
    orphans = collector.orphans()
    trees = trace_trees(merged)
    bench_traces = {
        tid: tree for tid, tree in trees.items()
        if any(s["name"] == "bench.request" for s in tree["spans"])
    }
    single_root = all(len(t["roots"]) == 1 for t in bench_traces.values())
    reaches_replica = all(
        any(s["proc"].startswith("replica-") for s in t["spans"])
        for t in bench_traces.values()
    )
    trace_ok = (
        not orphans
        and bool(bench_traces)
        and single_root
        and reaches_replica
    )

    # -- drift coverage ------------------------------------------------------
    snap = drift.snapshot()
    gauges = metrics.as_dict()["gauges"]
    drift_ok = bool(snap) and all(
        f"drift_sensitive_ratio:{layer}" in gauges for layer in snap
    )

    gate_enforced = cores >= GATE_MIN_CORES
    if gate_enforced:
        gate_reason = f"host exposes {cores} usable cores"
    else:
        gate_reason = (f"host exposes {cores} usable core(s) "
                       f"(< {GATE_MIN_CORES}); overhead ratio is "
                       "scheduling noise when replicas timeshare")
    overhead_ok = (not gate_enforced) or overhead <= OVERHEAD_GATE

    rows = [
        [name, f"{best[name] * 1e3:.1f}", f"{throughput[name]:.1f}"]
        for name in ("untraced", "traced")
    ]
    table = ascii_table(
        ["configuration", "sweep ms", "img/s"],
        rows,
        title=(
            f"cluster tracing overhead — {REPLICAS} replicas, "
            f"{N_REQUESTS} mixed-size requests, {total_images} images "
            f"(min of {repeats}, interleaved; BLAS pinned)"
        ),
    )
    summary = [
        table,
        "",
        f"usable cores: {cores}",
        f"merged spans: {len(merged)} across {len(collector.lanes())} lanes; "
        f"request traces: {len(bench_traces)}",
        "trace integrity gate (no orphans, one root per request, replica "
        "lane reached): " + ("PASS" if trace_ok else "FAIL")
        + f" ({len(orphans)} orphan(s))",
        f"drift coverage gate ({len(snap)} layers sampled): "
        + ("PASS" if drift_ok else "FAIL"),
        f"overhead gate (<= {OVERHEAD_GATE:.0%} traced vs untraced): "
        + (
            f"{'PASS' if overhead <= OVERHEAD_GATE else 'FAIL'} "
            f"({overhead:+.2%})"
            if gate_enforced
            else f"not enforced — {gate_reason} ({overhead:+.2%} measured)"
        ),
    ]
    text = "\n".join(summary)
    print(text)

    results_dir = REPO_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "cluster_trace_overhead.txt").write_text(text + "\n")
    sample = collector.write_chrome_trace(
        results_dir / "cluster_trace_sample.json"
    )
    print(f"[sample merged trace written to {sample}]")

    payload = {
        "bench": "cluster_trace_overhead",
        "repeats": repeats,
        "usable_cores": cores,
        "replicas": REPLICAS,
        "requests": N_REQUESTS,
        "images": total_images,
        "sweep_times_ms": {k: v * 1e3 for k, v in best.items()},
        "throughput_img_s": {k: round(v, 2) for k, v in throughput.items()},
        "merged_spans": len(merged),
        "lanes": collector.lanes(),
        "request_traces": len(bench_traces),
        "orphan_spans": len(orphans),
        "drift_layers": sorted(snap),
        "gates": {
            "trace_ok": trace_ok,
            "drift_ok": drift_ok,
            "overhead": round(overhead, 4),
            "overhead_gate": OVERHEAD_GATE,
            "gate_enforced": gate_enforced,
            "gate_reason": gate_reason,
            "overhead_ok": overhead_ok,
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[json written to {JSON_PATH}]")

    if check and not (trace_ok and drift_ok and overhead_ok):
        return 1
    return 0


def test_cluster_trace_overhead_gate():
    """Pytest entry point: same assertion as the CI --check run."""
    assert run(check=True) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a gate fails")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    return run(check=args.check, repeats=args.repeats)


if __name__ == "__main__":
    sys.exit(main())

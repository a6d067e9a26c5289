"""Replica-process scaling: 1/2/4 engine replicas on the serving sweep.

Measures :class:`repro.cluster.ClusterPool` throughput on a fixed
mixed-size request set at 1, 2, and 4 replica processes.  Timing is
interleaved min-of-N: every round times every replica count once, so
machine-load spikes hit all configurations equally, and the minimum over
rounds is the least-biased cost estimate.  The BLAS is pinned to 1
thread (env pins before numpy loads) and every GEMM runs on the thread
that issues it, so replica *processes* are the only source of
parallelism being measured.

Artefacts: ``BENCH_cluster_scaling.json`` at the repo root (CI uploads
it) and ``results/cluster_scaling.txt``.  ``--check`` enforces the PR
gates:

* exactness — every replicated output equals the single-engine
  chunked reference bit-for-bit, at every replica count
  (unconditional: ODQ's per-chunk quantization makes batch boundaries
  part of the numerical contract, and the router must preserve them);
* scaling — >= 1.6x throughput at 2 replicas over 1 replica, enforced
  only when the host exposes >= 2 usable cores (a 1-core container
  timeshares the replicas; the JSON then records
  ``gate_enforced: false`` with the reason, and CI runners — which do
  have the cores — enforce it).

Run standalone (CI): ``PYTHONPATH=src python benchmarks/bench_cluster_scaling.py --check``
Or under pytest with the rest of the harness: ``pytest benchmarks/bench_cluster_scaling.py``
"""

from __future__ import annotations

import os

# Pin BLAS-internal threading *before* numpy loads its BLAS: replica
# scaling numbers are meaningless if OpenBLAS also fans out per GEMM.
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
JSON_PATH = REPO_ROOT / "BENCH_cluster_scaling.json"

REPLICA_COUNTS = (1, 2, 4)
SPEEDUP_GATE = 1.6        #: min 1-replica -> 2-replica throughput speedup
GATE_MIN_CORES = 2        #: cores required before the gate is enforced
N_REQUESTS = 16           #: requests per timed round
MAX_BATCH = 8             #: chunk size — also the request-size spread


def _serve_config(replicas: int):
    from repro.serve.config import ServeConfig

    return ServeConfig(
        model="lenet",
        scheme="odq",
        dataset="mnist",
        train_epochs=0,
        calib_images=32,
        max_batch_size=MAX_BATCH,
        replicas=replicas,
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


def _chunked_reference(engine, arr: np.ndarray) -> np.ndarray:
    """Single-engine logits with the router's deterministic chunking."""
    parts = [
        engine.infer(arr[o : o + MAX_BATCH])
        for o in range(0, arr.shape[0], MAX_BATCH)
    ]
    return np.concatenate(parts, axis=0)


def run(check: bool = False, repeats: int = 3) -> int:
    from repro.cluster import ClusterPool
    from repro.obs import trace
    from repro.serve.session import ModelSession
    from repro.utils.host import usable_cores
    from repro.utils.report import ascii_table

    trace.disable()
    cores = usable_cores()
    rng = np.random.default_rng(0x0D9)

    # One reference session in this process: request set + exactness
    # baseline (replicas rebuild bit-identical engines from the config).
    session = ModelSession(_serve_config(1))
    reqs = _requests(session, rng)
    total_images = sum(r.shape[0] for r in reqs)
    references = [_chunked_reference(session.engine, r) for r in reqs]

    pools: dict[int, ClusterPool] = {}
    elapsed: dict[int, list[float]] = {r: [] for r in REPLICA_COUNTS}
    exact: dict[int, bool] = {}
    max_diff: dict[int, float] = {}
    try:
        for r in REPLICA_COUNTS:
            pool = ClusterPool(
                _serve_config(r),
                input_shape=session.input_shape,
                num_classes=session.num_classes,
            )
            pool.start()
            if not pool.wait_ready(timeout=300.0):
                print(f"FATAL: {r}-replica pool failed to come up", file=sys.stderr)
                return 1
            pools[r] = pool

        for rnd in range(repeats + 1):  # round 0 is warm-up + exactness
            for r in REPLICA_COUNTS:
                pool = pools[r]
                t0 = time.perf_counter()
                futs = [pool.submit(a) for a in reqs]
                outs = [f.result(timeout=300.0) for f in futs]
                dt = time.perf_counter() - t0
                if rnd == 0:
                    diffs = [
                        float(np.max(np.abs(o - ref))) if o.size else 0.0
                        for o, ref in zip(outs, references)
                    ]
                    exact[r] = all(
                        np.array_equal(o, ref)
                        for o, ref in zip(outs, references)
                    )
                    max_diff[r] = max(diffs)
                else:
                    elapsed[r].append(dt)
    finally:
        for pool in pools.values():
            pool.shutdown()

    best = {r: min(ts) for r, ts in elapsed.items()}
    throughput = {r: total_images / best[r] for r in REPLICA_COUNTS}
    speedups = {r: best[1] / best[r] if best[r] > 0 else 0.0
                for r in REPLICA_COUNTS}

    exact_ok = all(exact.values())
    gate_enforced = cores >= GATE_MIN_CORES
    if gate_enforced:
        gate_reason = f"host exposes {cores} usable cores"
    else:
        gate_reason = (f"host exposes {cores} usable core(s) "
                       f"(< {GATE_MIN_CORES}); replica scaling not measurable")
    scaling_ok = (not gate_enforced) or speedups[2] >= SPEEDUP_GATE

    rows = [
        [
            f"{r} replica{'s' if r > 1 else ''}",
            f"{best[r] * 1e3:.1f}",
            f"{throughput[r]:.1f}",
            f"{speedups[r]:.2f}x",
            "yes" if exact[r] else "NO",
        ]
        for r in REPLICA_COUNTS
    ]
    table = ascii_table(
        ["configuration", "sweep ms", "img/s", "vs 1", "bit-exact"],
        rows,
        title=(
            f"cluster replica scaling — {N_REQUESTS} mixed-size requests, "
            f"{total_images} images (min of {repeats}, interleaved; "
            "BLAS pinned to 1 thread)"
        ),
    )
    summary = [
        table,
        "",
        f"usable cores: {cores}",
        "exactness gate (replicated == single-engine chunked reference): "
        + ("PASS" if exact_ok else "FAIL")
        + f" (max |diff| = {max(max_diff.values()):.3g})",
        f"scaling gate (>= {SPEEDUP_GATE}x at 2 replicas): "
        + (
            f"{'PASS' if speedups[2] >= SPEEDUP_GATE else 'FAIL'} "
            f"({speedups[2]:.2f}x)"
            if gate_enforced
            else f"not enforced — {gate_reason} ({speedups[2]:.2f}x measured)"
        ),
    ]
    text = "\n".join(summary)
    print(text)

    results_dir = REPO_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "cluster_scaling.txt").write_text(text + "\n")

    payload = {
        "bench": "cluster_scaling",
        "repeats": repeats,
        "usable_cores": cores,
        "blas_threads_pinned": 1,
        "requests": N_REQUESTS,
        "images": total_images,
        "max_batch_size": MAX_BATCH,
        "sweep_times_ms": {str(r): best[r] * 1e3 for r in REPLICA_COUNTS},
        "throughput_img_s": {
            str(r): round(throughput[r], 2) for r in REPLICA_COUNTS
        },
        "speedup_vs_1": {str(r): round(speedups[r], 3) for r in REPLICA_COUNTS},
        "bitexact": {str(r): exact[r] for r in REPLICA_COUNTS},
        "max_abs_diff": {str(r): max_diff[r] for r in REPLICA_COUNTS},
        "gates": {
            "exact_ok": exact_ok,
            "speedup_2r": round(speedups[2], 3),
            "speedup_gate": SPEEDUP_GATE,
            "gate_enforced": gate_enforced,
            "gate_reason": gate_reason,
            "scaling_ok": scaling_ok,
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[json written to {JSON_PATH}]")

    if check and not (exact_ok and scaling_ok):
        return 1
    return 0


def test_cluster_scaling_gate():
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

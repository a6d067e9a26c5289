"""Row-blocked GEMM pool scaling: threads 1/2/4/8 on VGG-scale GEMMs.

Measures :func:`repro.core.gemm.pgemm` against the serial ``a @ b`` on
the im2col GEMM shapes a VGG-style stack actually produces (thousands of
output rows, k = c_in*k*k in the hundreds-to-thousands), at pool widths
1, 2, 4 and 8.  Timing is interleaved min-of-N: every round times every
(case, width) pair once, so machine-load spikes hit all configurations
equally, and the minimum over rounds is the least-biased cost estimate
(``timeit`` reasoning).  The BLAS's own threading is pinned to 1
(``OMP_NUM_THREADS`` / ``OPENBLAS_NUM_THREADS``) so the pool is the only
source of parallelism being measured.

Artefacts: ``BENCH_gemm_parallel.json`` at the repo root (CI uploads it)
and ``results/gemm_parallel.txt``.  ``--check`` enforces the PR gates:

* exactness — ``pgemm(a, b)`` equals ``a @ b`` bit-for-bit at every
  width on every case (unconditional: this must hold everywhere);
* scaling — >= 1.8x total speedup at 4 threads over 1 thread,
  enforced only when the host exposes >= 4 usable cores (a 1-core
  container cannot speed anything up; the JSON then records
  ``gate_enforced: false`` with the reason, and CI runners — which do
  have the cores — enforce it).

Run standalone (CI): ``PYTHONPATH=src python benchmarks/bench_gemm_parallel.py --check``
Or under pytest with the rest of the harness: ``pytest benchmarks/bench_gemm_parallel.py``
"""

from __future__ import annotations

import os

# Pin BLAS-internal threading *before* numpy loads its BLAS: the pool's
# scaling numbers are meaningless if OpenBLAS also fans out per block.
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
JSON_PATH = REPO_ROOT / "BENCH_gemm_parallel.json"

THREAD_COUNTS = (1, 2, 4, 8)
SPEEDUP_GATE = 1.8        #: min 1-thread -> 4-thread total speedup
GATE_MIN_CORES = 4        #: cores required before the gate is enforced

#: (name, m, k, n) — im2col GEMM shapes of a VGG-style stack:
#: m = images * out_h * out_w output rows, k = c_in * 3 * 3, n = c_out.
CASES = (
    ("conv3-128 @ 16x16x8", 2048, 1152, 128),
    ("conv3-256 @  8x8x16", 1024, 2304, 256),
    ("conv3-512 @  4x4x32", 512, 4608, 512),
)


def _build_operands(rng: np.random.Generator):
    return [
        (name, rng.standard_normal((m, k)), rng.standard_normal((k, n)))
        for name, m, k, n in CASES
    ]


def run(check: bool = False, repeats: int = 5) -> int:
    from repro.core import gemm
    from repro.obs import trace
    from repro.utils.host import usable_cores
    from repro.utils.report import ascii_table

    trace.disable()
    rng = np.random.default_rng(0x5EED)
    operands = _build_operands(rng)
    cores = usable_cores()

    # Auto-tune once (verifies the block floor), then drop the FLOP
    # crossover so every case takes the pooled path at width > 1; the
    # *verified* per-block floor is kept, so exactness still holds.
    tune = gemm.tuning()
    gemm.configure(min_flops=1.0e6)

    references = {name: a @ b for name, a, b in operands}
    exact: dict[str, dict[int, bool]] = {name: {} for name, _, _ in operands}
    times: dict[str, dict[int, list[float]]] = {
        name: {t: [] for t in THREAD_COUNTS} for name, _, _ in operands
    }
    pooled: dict[int, int] = {}

    for rnd in range(repeats + 1):  # round 0 is warm-up, discarded
        for threads in THREAD_COUNTS:
            gemm.configure(threads=threads)
            for name, a, b in operands:
                t0 = time.perf_counter()
                out = gemm.pgemm(a, b)
                dt = time.perf_counter() - t0
                if rnd == 0:
                    exact[name][threads] = bool(
                        np.array_equal(out, references[name])
                    )
                else:
                    times[name][threads].append(dt)
            if rnd == 0:
                pooled[threads] = gemm.stats().pooled_calls
    gemm.shutdown()

    best = {
        name: {t: min(ts) for t, ts in per.items()} for name, per in times.items()
    }
    totals = {t: sum(best[name][t] for name in best) for t in THREAD_COUNTS}
    speedups = {t: totals[1] / totals[t] if totals[t] > 0 else 0.0
                for t in THREAD_COUNTS}

    exact_ok = all(ok for per in exact.values() for ok in per.values())
    gate_enforced = cores >= GATE_MIN_CORES and tune.verified
    if not tune.verified:
        gate_reason = ("BLAS failed block-exactness verification; "
                       "pool refuses to parallelize")
    elif cores < GATE_MIN_CORES:
        gate_reason = (f"host exposes {cores} usable core(s) "
                       f"(< {GATE_MIN_CORES}); scaling not measurable")
    else:
        gate_reason = f"host exposes {cores} usable cores"
    scaling_ok = (not gate_enforced) or speedups[4] >= SPEEDUP_GATE

    rows = [
        [name]
        + [f"{best[name][t] * 1e3:.2f}" for t in THREAD_COUNTS]
        + [f"{best[name][1] / best[name][4]:.2f}x",
           "yes" if all(exact[name].values()) else "NO"]
        for name, _, _ in operands
    ]
    rows.append(
        ["TOTAL"]
        + [f"{totals[t] * 1e3:.2f}" for t in THREAD_COUNTS]
        + [f"{speedups[4]:.2f}x", "yes" if exact_ok else "NO"]
    )
    table = ascii_table(
        ["case (m,k,n per CASES)"]
        + [f"{t}t ms" for t in THREAD_COUNTS]
        + ["1t/4t", "exact"],
        rows,
        title=(
            "pgemm row-blocked pool scaling — VGG-scale im2col GEMMs "
            f"(min of {repeats}, interleaved; BLAS pinned to 1 thread)"
        ),
    )
    summary = [
        table,
        "",
        f"block floor: {tune.min_block_mnk} (m*n*k/block, "
        f"verified={tune.verified}); usable cores: {cores}",
        "exactness gate (pgemm == a @ b at every width): "
        + ("PASS" if exact_ok else "FAIL"),
        f"scaling gate (>= {SPEEDUP_GATE}x at 4 threads): "
        + (
            f"{'PASS' if speedups[4] >= SPEEDUP_GATE else 'FAIL'} "
            f"({speedups[4]:.2f}x)"
            if gate_enforced
            else f"not enforced — {gate_reason} ({speedups[4]:.2f}x measured)"
        ),
    ]
    text = "\n".join(summary)
    print(text)

    results_dir = REPO_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "gemm_parallel.txt").write_text(text + "\n")

    payload = {
        "bench": "gemm_parallel",
        "repeats": repeats,
        "usable_cores": cores,
        "blas_threads_pinned": 1,
        "tuning": {
            "min_block_mnk": tune.min_block_mnk,
            "verified": tune.verified,
        },
        "cases": [
            {
                "name": name,
                "m": m,
                "k": k,
                "n": n,
                "times_ms": {str(t): best[name][t] * 1e3 for t in THREAD_COUNTS},
                "exact": {str(t): exact[name][t] for t in THREAD_COUNTS},
            }
            for name, m, k, n in CASES
        ],
        "total_times_ms": {str(t): totals[t] * 1e3 for t in THREAD_COUNTS},
        "speedup_vs_1t": {str(t): round(speedups[t], 3) for t in THREAD_COUNTS},
        "gates": {
            "exact_ok": exact_ok,
            "speedup_4t": round(speedups[4], 3),
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


def test_gemm_parallel_gate():
    """Pytest entry point: same assertion as the CI --check run."""
    assert run(check=True) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a gate fails")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    return run(check=args.check, repeats=args.repeats)


if __name__ == "__main__":
    sys.exit(main())

"""Compiled inference plans: planned-vs-unplanned latency and exactness.

Measures end-to-end ``engine.infer`` latency on the serve-default
session (lenet/mnist, ``max_batch_size`` images per call) with the
compiled plan (:mod:`repro.core.plan`) on and off.  The plan removes
the per-call tape: module dispatch, autograd graph construction, the
maxpool backward-index precompute, BatchNorm constant reshapes, and
re-deciding GEMM routing and the dense/sparse exec path every call —
the GEMMs themselves are unchanged, which is why the gate is a
wall-clock ratio, not a FLOP count.

Methodology (shared with ``bench_odq_sparse``): one timed run per style
per round, *interleaved*, so machine-load noise hits both styles; the
*minimum* over rounds estimates true cost; round 0 is a discarded
warm-up.  Batch 1 is reported for context but not gated (the serve
path coalesces to ``max_batch_size``).

Artefacts: ``BENCH_plan.json`` at the repo root (CI uploads it) and
``results/plan_speedup.txt``.  Gates:

* bit-exactness — planned output ``array_equal`` unplanned output at
  every measured shape.  Enforced *unconditionally*, ``--check`` or
  not: a plan that changes results is a correctness bug, never a perf
  trade;
* speedup — planned beats unplanned by >= 1.15x on the serve-default
  batch (``--check`` only, like every perf gate).

Run standalone (CI): ``PYTHONPATH=src python benchmarks/bench_plan.py --check``
Or under pytest with the rest of the harness: ``pytest benchmarks/bench_plan.py``
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# BLAS/OpenMP pools pinned to one thread unless the caller chose, as in CI
# and benchmarks/e2e/run.py; set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_plan.json"

SPEEDUP_GATE = 1.15  #: min unplanned->planned speedup at the serve batch


def _build_session():
    from repro.serve.config import ServeConfig
    from repro.serve.session import ModelSession

    # Default scale: at smoke scale the layers are so small the tape
    # overhead the plan removes *is* most of the runtime and the speedup
    # inflates; gate at the scale serving actually runs.  Respect an
    # explicit REPRO_SCALE if the caller set one.
    os.environ.setdefault("REPRO_SCALE", "default")
    config = ServeConfig(model="lenet", scheme="odq", dataset="mnist",
                         train_epochs=0, calib_images=32)
    return ModelSession(config)


def _tile(sample: np.ndarray, n: int) -> np.ndarray:
    reps = -(-n // len(sample))
    return np.concatenate([sample] * reps)[:n]


def _timed_infer(engine, x) -> tuple[float, np.ndarray]:
    t0 = time.perf_counter()
    out = engine.infer(x)
    return time.perf_counter() - t0, out


def _measure_shape(engine, x, repeats: int) -> dict:
    """Interleaved min-of-``repeats`` planned vs unplanned at one shape."""
    times = {"planned": [], "unplanned": []}
    outs = {}
    for rnd in range(repeats + 1):
        for style in ("planned", "unplanned"):
            engine.use_plan = style == "planned"
            t, out = _timed_infer(engine, x)
            if rnd == 0:
                outs[style] = out
            else:
                times[style].append(t)
    engine.use_plan = True
    exact = (
        outs["planned"].dtype == outs["unplanned"].dtype
        and np.array_equal(outs["planned"], outs["unplanned"])
    )
    t_planned = min(times["planned"])
    t_unplanned = min(times["unplanned"])
    return {
        "batch": int(x.shape[0]),
        "planned_ms": t_planned * 1e3,
        "unplanned_ms": t_unplanned * 1e3,
        "speedup": t_unplanned / t_planned,
        "bitexact": bool(exact),
    }


def run(check: bool = False, repeats: int = 7) -> int:
    from repro.obs import trace
    from repro.utils.report import ascii_table

    trace.disable()
    np.random.seed(0)
    session = _build_session()
    engine = session.engine
    serve_batch = session.config.max_batch_size

    points = []
    for n in (1, serve_batch):
        x = _tile(session.sample_inputs, n)
        points.append(_measure_shape(engine, x, repeats))

    gated = next(p for p in points if p["batch"] == serve_batch)
    exact_ok = all(p["bitexact"] for p in points)
    speedup_ok = gated["speedup"] >= SPEEDUP_GATE
    plan_stats = engine.plan_stats()

    rows = [
        [
            p["batch"],
            f"{p['unplanned_ms']:.2f}",
            f"{p['planned_ms']:.2f}",
            f"{p['speedup']:.2f}x",
            "yes" if p["bitexact"] else "NO",
            "<- gate" if p["batch"] == serve_batch else "",
        ]
        for p in points
    ]
    table = ascii_table(
        ["batch", "unplanned ms", "planned ms", "speedup", "bit-exact", ""],
        rows,
        title="compiled plan vs per-call path (lenet/mnist, serve default)",
    )
    summary = [
        table,
        "",
        f"plan cache: compiles={plan_stats['compiles']} "
        f"hits={plan_stats['hits']} "
        f"modes={sorted({p['mode'] for p in plan_stats['plans']})}",
        f"bit-exactness at every shape: {'PASS' if exact_ok else 'FAIL'} "
        f"(unconditional gate)",
        f"speedup at serve batch ({serve_batch}): {gated['speedup']:.2f}x "
        f"(gate >= {SPEEDUP_GATE}x) {'PASS' if speedup_ok else 'FAIL'}",
    ]
    text = "\n".join(summary)
    print(text)

    results_dir = REPO_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "plan_speedup.txt").write_text(text + "\n")

    payload = {
        "bench": "plan",
        "model": "lenet",
        "dataset": "mnist",
        "serve_batch": serve_batch,
        "repeats": repeats,
        "points": points,
        "plan_stats": {k: v for k, v in plan_stats.items() if k != "plans"},
        "gates": {
            "speedup": gated["speedup"],
            "speedup_gate": SPEEDUP_GATE,
            "speedup_ok": speedup_ok,
            "bitexact_ok": exact_ok,
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[json written to {JSON_PATH}]")

    if not exact_ok:
        return 1  # correctness gate: enforced with or without --check
    if check and not speedup_ok:
        return 1
    return 0


def test_plan_speedup_gate():
    """Pytest entry point: same assertion as the CI --check run."""
    assert run(check=True) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when the speedup gate fails "
                             "(bit-exactness is enforced regardless)")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    return run(check=args.check, repeats=args.repeats)


if __name__ == "__main__":
    sys.exit(main())

"""Dense-vs-sparse result generation: crossover sweep and speedup gate.

Sweeps the ODQ sensitive ratio (via per-layer threshold quantiles) on a
resnet20/cifar10 session and measures end-to-end ``engine.infer`` latency
under four execution styles:

``seed``
    the pre-column-cache executor emulated faithfully: predictor and
    full result each redo quantize/pad/im2col, the dense full result is
    always computed, ``np.where`` selects (what the repo shipped before
    the sparse path existed);
``dense``
    column-cache dense path (one shared prep, one full GEMM);
``sparse``
    gather-only-sensitive-rows path (one cross-term GEMM + scatter);
``auto``
    per-call dispatch on the sensitive-row density.

Artefacts: ``BENCH_odq_sparse.json`` at the repo root (CI uploads it) and
``results/odq_sparse_speedup.txt``.  ``--check`` enforces the PR gates:

* headline — at some sweep point with measured sensitive ratio <= 40%,
  ``auto`` must beat ``seed`` by >= 1.5x;
* dispatch sanity — ``auto`` is never slower than the better of
  dense/sparse by more than 5% (plus a small absolute timer-noise slack),
  measured as the median over paired rounds of ``auto / min(dense,
  sparse)``.

``dense/sparse`` (and the crossover fitted from it) is likewise the
median over rounds of the paired per-round ratio.

Run standalone (CI): ``PYTHONPATH=src python benchmarks/bench_odq_sparse.py --check``
Or under pytest with the rest of the harness: ``pytest benchmarks/bench_odq_sparse.py``
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import types
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_odq_sparse.json"

SPEEDUP_GATE = 1.5        #: min seed->auto speedup at <=40% sensitivity
RATIO_GATE = 0.40         #: the sensitive-ratio regime the gate covers
AUTO_TOLERANCE = 1.05     #: auto within 5% of best(dense, sparse) ...
AUTO_ABS_SLACK_S = 5e-4   #: ... plus timer-noise slack on tiny layers

TARGET_RATIOS = (0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.60, 0.80)


def _build_session():
    from repro.serve.config import ServeConfig
    from repro.serve.session import ModelSession

    # Default-scale layers (32px, full width): at small scale every GEMM is
    # tiny and the sweep measures timer noise, not the paths.  Respect an
    # explicit REPRO_SCALE if the caller set one.
    os.environ.setdefault("REPRO_SCALE", "default")
    config = ServeConfig(model="resnet20", scheme="odq", dataset="cifar10",
                         train_epochs=0, calib_images=32)
    return ModelSession(config)


def _collect_partial_samples(engine, x) -> dict:
    """One probing inference with partial-magnitude sampling enabled."""
    for ex in engine.executors.values():
        ex.collect_partials = True
    engine.infer(x)
    samples = {}
    for name, ex in engine.executors.items():
        chunks = ex.record.extra.pop("partial_abs_samples", [])
        samples[name] = np.concatenate(chunks) if chunks else np.array([0.0])
        ex.collect_partials = False
    engine.reset_records()
    return samples


def _set_thresholds(engine, samples, target_ratio: float) -> None:
    """Per-layer thresholds hitting ~target_ratio sensitivity everywhere."""
    for name, ex in engine.executors.items():
        ex.threshold = float(np.quantile(samples[name], 1.0 - target_ratio))


def _set_exec_path(engine, path: str) -> None:
    for ex in engine.executors.values():
        ex.exec_path = path


def _seed_style_run(self, x):
    """The pre-PR executor, replicated instruction-for-instruction.

    Before the column cache existed, ``predict_partial`` and
    ``full_result`` each redid quantize/pad/im2col independently, the
    integer convolutions round-tripped through ``np.rint``/``int64``,
    the partial was shifted as an int64 tensor, and the dense full
    result was always computed with ``np.where`` selecting at the end.
    (Verified against ``git show`` of the seed ``repro/core/odq.py``.)
    """
    from repro.core.base import int_conv2d
    from repro.core.masks import mask_from_magnitude
    from repro.quant.bitsplit import split_planes
    from repro.quant.uniform import quantize
    from repro.utils.im2col import pad_nchw

    qp_a = self._qp_a_for(x)
    scale = qp_a.scale * self.qp_w.scale

    # -- seed predict_partial: quantize -> split -> pad -> int conv ------
    q = quantize(x, qp_a)
    e_low = (float(split_planes(q, qp_a, self.low_bits).low.mean())
             if self.compensate_low_bits else 0.0)
    qpad = q
    if self.conv.padding:
        qpad = pad_nchw(q.astype(np.int64), self.conv.padding,
                        value=qp_a.zero_point).astype(np.int64)
    q_high = split_planes(qpad, qp_a, self.low_bits).high
    hh = int_conv2d(q_high, self._qw_high, self.conv.stride, 0)
    shifted = hh << (2 * self.low_bits)
    partial = scale * (shifted + (e_low - qp_a.zero_point) * self._w_sum)
    if self.conv.bias is not None:
        partial = partial + self.conv.bias.data.reshape(1, -1, 1, 1)

    mask = mask_from_magnitude(partial, self.effective_threshold)

    # -- seed full_result: re-quantize, always-dense int conv ------------
    q2 = quantize(x, qp_a)
    acc = int_conv2d(q2, self._qw, self.conv.stride, self.conv.padding,
                     pad_value=qp_a.zero_point)
    full = scale * (acc - qp_a.zero_point * self._w_sum)
    if self.conv.bias is not None:
        full = full + self.conv.bias.data.reshape(1, -1, 1, 1)
    return np.where(mask.mask, full, partial)


def _patch_seed_style(engine):
    originals = {}
    for name, ex in engine.executors.items():
        originals[name] = ex.run
        ex.run = types.MethodType(_seed_style_run, ex)
    return originals


def _unpatch(engine, originals) -> None:
    for name, ex in engine.executors.items():
        ex.run = originals[name]


def _timed_infer_seconds(engine, x) -> float:
    t0 = time.perf_counter()
    engine.infer(x)
    return time.perf_counter() - t0


def _measure_point(engine, x, repeats: int) -> dict:
    """Paired rounds: one timed run of every execution style per round.

    *Interleaving* keeps the style-vs-style comparison honest on a
    shared core: slow periods of machine load hit every style of a round
    instead of whichever style happened to be measured during them.  So
    the comparisons below are ratios *within* a round, medianed over the
    ``repeats`` rounds, not ratios of per-style minima taken in different
    rounds.  Each style's ``times`` entry is still its minimum over the
    rounds (contention only ever adds time), which the table and the
    seed->auto headline report.

    The first round is a warm-up (caches/BLAS) and is discarded.
    Returns ``{"times": {style: seconds}, "rounds": {style: [seconds]},
    "agg": {style: census}}``.
    """
    styles = ("seed", "dense", "sparse", "auto")
    times: dict = {s: [] for s in styles}
    agg: dict = {}
    for rnd in range(repeats + 1):
        for style in styles:
            if style == "seed":
                originals = _patch_seed_style(engine)
                try:
                    t = _timed_infer_seconds(engine, x)
                finally:
                    _unpatch(engine, originals)
            else:
                _set_exec_path(engine, style)
                engine.reset_records()
                t = _timed_infer_seconds(engine, x)
                if rnd == 0:
                    agg[style] = _aggregate_records(engine)
            if rnd > 0:  # round 0 is warm-up
                times[style].append(t)
    return {"times": {s: min(times[s]) for s in styles}, "rounds": times,
            "agg": agg}


def _paired_medians(rounds: dict) -> dict:
    """Per-round ratios of the paired styles, medianed over rounds."""
    dense, sparse, auto = (np.asarray(rounds[s]) for s in ("dense", "sparse", "auto"))
    best = np.minimum(dense, sparse)
    return {
        "auto_over_best": float(np.median(auto / best)),
        "best_s": float(np.median(best)),
        "dense_over_sparse": float(np.median(dense / sparse)),
    }


def _aggregate_records(engine) -> dict:
    """Sensitivity + dispatch census summed over all executors."""
    outputs = sensitive = rows = rows_computed = 0
    path_calls: dict = {}
    for ex in engine.executors.values():
        rec = ex.record
        outputs += rec.outputs_total
        sensitive += rec.sensitive_total
        rows += rec.rows_total
        rows_computed += rec.rows_computed
        for p, n in rec.path_calls.items():
            path_calls[p] = path_calls.get(p, 0) + n
    return {
        "sensitive_ratio": sensitive / outputs if outputs else 0.0,
        "row_fraction": rows_computed / rows if rows else 0.0,
        "path_calls": path_calls,
    }


def run(check: bool = False, images: int = 16, repeats: int = 15) -> int:
    from repro.obs import trace
    from repro.utils.report import ascii_table

    trace.disable()
    np.random.seed(0)
    session = _build_session()
    engine = session.engine
    x = session.sample_inputs[:images]
    if len(x) < images:
        x = np.concatenate([x] * (-(-images // len(x))))[:images]

    samples = _collect_partial_samples(engine, x)

    sweep = []
    for target in TARGET_RATIOS:
        _set_thresholds(engine, samples, target)
        measured = _measure_point(engine, x, repeats)
        paired = _paired_medians(measured["rounds"])
        point = {
            "target_ratio": target,
            "times_ms": {s: t * 1e3 for s, t in measured["times"].items()},
            "measured_ratio": measured["agg"]["dense"]["sensitive_ratio"],
            "row_fraction": measured["agg"]["sparse"]["row_fraction"],
            "auto_paths": measured["agg"]["auto"]["path_calls"],
            "auto_over_best": paired["auto_over_best"],
            "best_ms": paired["best_s"] * 1e3,
        }

        t = point["times_ms"]
        point["speedup_seed_auto"] = t["seed"] / t["auto"]
        point["speedup_seed_sparse"] = t["seed"] / t["sparse"]
        point["speedup_dense_sparse"] = paired["dense_over_sparse"]
        sweep.append(point)

    # Empirical dense/sparse crossover: the row fraction where the
    # dense->sparse speedup crosses 1.0 (linear interpolation).
    crossover = None
    ordered = sorted(sweep, key=lambda p: p["row_fraction"])
    for lo, hi in zip(ordered, ordered[1:]):
        s_lo, s_hi = lo["speedup_dense_sparse"], hi["speedup_dense_sparse"]
        if (s_lo - 1.0) * (s_hi - 1.0) <= 0 and s_lo != s_hi:
            f = (s_lo - 1.0) / (s_lo - s_hi)
            crossover = lo["row_fraction"] + f * (
                hi["row_fraction"] - lo["row_fraction"])
            break

    # -- gates ---------------------------------------------------------------
    eligible = [p for p in sweep if p["measured_ratio"] <= RATIO_GATE]
    headline = max((p["speedup_seed_auto"] for p in eligible), default=0.0)
    headline_ok = headline >= SPEEDUP_GATE
    # auto <= 5% over best(dense, sparse) + slack, as a paired ratio.
    auto_ok = all(
        p["auto_over_best"]
        <= AUTO_TOLERANCE + AUTO_ABS_SLACK_S / (p["best_ms"] / 1e3)
        for p in sweep
    )

    rows = [
        [
            f"{p['target_ratio']:.2f}",
            f"{p['measured_ratio'] * 100:.1f}%",
            f"{p['row_fraction'] * 100:.1f}%",
            f"{p['times_ms']['seed']:.2f}",
            f"{p['times_ms']['dense']:.2f}",
            f"{p['times_ms']['sparse']:.2f}",
            f"{p['times_ms']['auto']:.2f}",
            f"{p['speedup_seed_auto']:.2f}x",
            f"{p['speedup_dense_sparse']:.2f}x",
            f"{p['auto_over_best']:.3f}",
        ]
        for p in sweep
    ]
    table = ascii_table(
        ["target", "sensitive", "rows", "seed ms", "dense ms",
         "sparse ms", "auto ms", "seed/auto", "dense/sparse", "auto/best"],
        rows,
        title="ODQ result generation: dense vs sparse sweep (resnet20/cifar10)",
    )
    summary = [
        table,
        "",
        f"dense/sparse crossover row fraction: "
        f"{'n/a (no crossing in sweep)' if crossover is None else f'{crossover:.2f}'}",
        f"headline: best seed->auto speedup at <= {RATIO_GATE:.0%} sensitivity "
        f"= {headline:.2f}x (gate >= {SPEEDUP_GATE}x) "
        f"{'PASS' if headline_ok else 'FAIL'}",
        f"auto dispatch within {AUTO_TOLERANCE - 1:.0%} of best path "
        f"(median paired ratio over {repeats} rounds): "
        f"{'PASS' if auto_ok else 'FAIL'}",
    ]
    text = "\n".join(summary)
    print(text)

    results_dir = REPO_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "odq_sparse_speedup.txt").write_text(text + "\n")

    payload = {
        "bench": "odq_sparse",
        "model": "resnet20",
        "dataset": "cifar10",
        "images": images,
        "repeats": repeats,
        "sweep": sweep,
        "crossover_row_fraction": crossover,
        "gates": {
            "headline_speedup": headline,
            "headline_gate": SPEEDUP_GATE,
            "headline_ok": headline_ok,
            "auto_within_tolerance": auto_ok,
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[json written to {JSON_PATH}]")

    if check and not (headline_ok and auto_ok):
        return 1
    return 0


def test_odq_sparse_speedup_gate():
    """Pytest entry point: same assertion as the CI --check run."""
    assert run(check=True) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a speedup gate fails")
    parser.add_argument("--images", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=15,
                        help="paired timing rounds per sweep point")
    args = parser.parse_args(argv)
    return run(check=args.check, images=args.images, repeats=args.repeats)


if __name__ == "__main__":
    sys.exit(main())

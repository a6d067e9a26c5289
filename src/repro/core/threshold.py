"""Adaptive threshold selection (Section 3, last paragraph; Fig. 22; Table 3).

The paper's procedure: start from a relatively large threshold taken from
the distribution of predictor outputs, run ODQ inference, and *halve* the
threshold until accuracy meets expectation.  One threshold is used for
every layer of a model ("In the same DNN model, we use the same threshold
across all layers, which greatly simplifies the design").

We reproduce the procedure verbatim, plus a dense sweep helper for the
Fig.-22 threshold-analysis curve.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.core.odq import ODQConvExecutor
from repro.core.odq_qat import finetune_odq
from repro.core.pipeline import QuantizedInferenceEngine, run_scheme
from repro.core.schemes import odq_scheme
from repro.nn.layers import Module


@dataclass
class ThresholdSearchResult:
    """Outcome of the adaptive halving search."""

    threshold: float
    accuracy: float
    baseline_accuracy: float
    trace: list[tuple[float, float]] = field(default_factory=list)
    converged: bool = True

    @property
    def accuracy_drop(self) -> float:
        return self.baseline_accuracy - self.accuracy


def initial_threshold(
    model: Module,
    x_calib: np.ndarray,
    percentile: float = 75.0,
    total_bits: int = 4,
    low_bits: int = 2,
) -> float:
    """Pick the starting threshold from the predictor-output distribution.

    Mirrors the paper: "ODQ randomly selects N inputs ..., performs
    inference using the high-order bits ..., and generates the output
    distribution of each layer.  A relatively large initial threshold is
    chosen based on the output distribution."  We take the given
    percentile of |partial output| pooled over all layers.
    """
    scheme = odq_scheme(threshold=float("inf"), total_bits=total_bits, low_bits=low_bits)
    engine = QuantizedInferenceEngine(model, scheme)
    try:
        for executor in engine.executors.values():
            executor.collect_partials = True
        engine.calibrate(x_calib)
        engine.forward(x_calib)
        samples = [
            np.concatenate(ex.record.extra["partial_abs_samples"])
            for ex in engine.executors.values()
        ]
        pooled = np.concatenate(samples)
        # Trained nets quantize many weights/activations to tiny values whose
        # high planes are zero, so a large share of partials is exactly 0;
        # the "relatively large" starting threshold must come from the
        # non-trivial part of the distribution (halving from 0 would stall).
        nonzero = pooled[pooled > 0]
        if nonzero.size == 0:
            return 1e-6
        return float(np.percentile(nonzero, percentile))
    finally:
        engine.restore()


class _SharedSweepEngine:
    """One calibrated ODQ engine reused across candidate thresholds.

    The threshold is read *per call* by the executors (it steers only the
    mask and result-generation steps), while calibration and freezing
    depend only on ``(model weights, x_calib)`` — so one engine calibrated
    once produces byte-identical results to a fresh engine per candidate,
    at one calibration instead of N.  Each call still builds its own
    per-layer column caches: nothing is kept from one candidate to the
    next but the frozen engine.

    Only valid when no per-candidate retraining happens (``finetune``
    changes the weights, which invalidates the calibration).
    """

    def __init__(
        self,
        model: Module,
        x_calib: np.ndarray,
        total_bits: int,
        low_bits: int,
    ) -> None:
        self.engine = QuantizedInferenceEngine(
            model, odq_scheme(0.0, total_bits=total_bits, low_bits=low_bits)
        )
        self.engine.calibrate(x_calib)

    def evaluate_at(
        self, theta: float, x_val: np.ndarray, y_val: np.ndarray
    ) -> tuple[float, float]:
        """(accuracy, mean sensitive fraction) at one threshold."""
        for ex in self.engine.executors.values():
            if isinstance(ex, ODQConvExecutor):
                ex.threshold = float(theta)
        self.engine.reset_records()
        acc = self.engine.evaluate(x_val, y_val)
        return acc, self.engine.mean_sensitive_fraction()

    def close(self) -> None:
        self.engine.restore()


def _evaluate_threshold(
    model: Module,
    theta: float,
    x_calib: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    total_bits: int,
    low_bits: int,
    finetune: dict | None,
) -> tuple[float, Module]:
    """ODQ accuracy at one threshold, optionally with the paper's
    retraining step (on a scratch copy; the input model is untouched)."""
    candidate = model
    if finetune is not None:
        candidate = copy.deepcopy(model)
        finetune_odq(candidate, theta, **finetune)
        candidate.eval()
    acc, _ = run_scheme(
        candidate,
        odq_scheme(theta, total_bits=total_bits, low_bits=low_bits),
        x_calib,
        x_val,
        y_val,
    )
    return acc, candidate


def adaptive_threshold_search(
    model: Module,
    x_calib: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    max_accuracy_drop: float = 0.01,
    start_threshold: float | None = None,
    max_halvings: int = 12,
    total_bits: int = 4,
    low_bits: int = 2,
    finetune: dict | None = None,
) -> ThresholdSearchResult:
    """The paper's halving search for the per-model ODQ threshold.

    ``max_accuracy_drop`` is "accuracy meets the expectation": the search
    stops at the first threshold whose ODQ validation accuracy is within
    that drop of the full-precision model's accuracy.

    ``finetune`` enables the paper's retraining step per candidate
    threshold ("Weights are retrained after introducing the threshold to
    the model"); it is the keyword dict passed to
    :func:`repro.core.odq_qat.finetune_odq` (minus the threshold), e.g.
    ``{"x_train": ..., "y_train": ..., "epochs": 2, "lr": 0.005}``.
    Each candidate trains a scratch copy; the input model is untouched.

    Without retraining the candidates share one calibrated engine (see
    :class:`_SharedSweepEngine`): the results are byte-identical to the
    per-candidate rebuild, but the calibration pass is paid once for the
    whole search.
    """
    from repro.core.schemes import fp32_scheme

    baseline, _ = run_scheme(model, fp32_scheme(), x_calib, x_val, y_val)

    theta = (
        start_threshold
        if start_threshold is not None
        else initial_threshold(model, x_calib, total_bits=total_bits, low_bits=low_bits)
    )
    trace: list[tuple[float, float]] = []
    shared = (
        None
        if finetune is not None
        else _SharedSweepEngine(model, x_calib, total_bits, low_bits)
    )
    try:
        for _ in range(max_halvings):
            if shared is not None:
                acc, _ = shared.evaluate_at(theta, x_val, y_val)
            else:
                acc, _ = _evaluate_threshold(
                    model, theta, x_calib, x_val, y_val,
                    total_bits, low_bits, finetune,
                )
            trace.append((theta, acc))
            if baseline - acc <= max_accuracy_drop:
                return ThresholdSearchResult(
                    theta, acc, baseline, trace, converged=True
                )
            theta /= 2.0
    finally:
        if shared is not None:
            shared.close()
    # Fall back to the best threshold seen.
    theta, acc = max(trace, key=lambda t: t[1])
    return ThresholdSearchResult(theta, acc, baseline, trace, converged=False)


@dataclass
class ThresholdSweepPoint:
    """One point of the Fig.-22 curve."""

    threshold: float
    accuracy: float
    insensitive_fraction: float  # share of INT2-only outputs
    sensitive_fraction: float  # share of INT4 outputs


def threshold_sweep(
    model: Module,
    x_calib: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    thresholds: np.ndarray | list[float],
    total_bits: int = 4,
    low_bits: int = 2,
    finetune: dict | None = None,
) -> list[ThresholdSweepPoint]:
    """Accuracy and INT4/INT2 mix across a threshold range (Fig. 22).

    ``finetune`` retrains a scratch copy per threshold (see
    :func:`adaptive_threshold_search`), matching the paper's procedure.

    Without retraining, all points share one calibrated engine —
    byte-identical :class:`ThresholdSweepPoint` values, but one
    calibration for the entire sweep instead of one per point.
    """
    points = []
    if finetune is None:
        shared = _SharedSweepEngine(model, x_calib, total_bits, low_bits)
        try:
            for theta in thresholds:
                acc, sens = shared.evaluate_at(float(theta), x_val, y_val)
                points.append(
                    ThresholdSweepPoint(
                        threshold=float(theta),
                        accuracy=acc,
                        insensitive_fraction=1.0 - sens,
                        sensitive_fraction=sens,
                    )
                )
        finally:
            shared.close()
        return points
    for theta in thresholds:
        candidate = copy.deepcopy(model)
        finetune_odq(candidate, float(theta), **finetune)
        candidate.eval()
        engine = QuantizedInferenceEngine(
            candidate, odq_scheme(float(theta), total_bits=total_bits, low_bits=low_bits)
        )
        try:
            engine.calibrate(x_calib)
            acc = engine.evaluate(x_val, y_val)
            sens = engine.mean_sensitive_fraction()
        finally:
            engine.restore()
        points.append(
            ThresholdSweepPoint(
                threshold=float(theta),
                accuracy=acc,
                insensitive_fraction=1.0 - sens,
                sensitive_fraction=sens,
            )
        )
    return points


__all__ = [
    "ThresholdSearchResult",
    "initial_threshold",
    "adaptive_threshold_search",
    "ThresholdSweepPoint",
    "threshold_sweep",
]

"""Sweep-time engine reuse: byte-identical results to fresh engines.

``threshold_sweep`` / ``adaptive_threshold_search`` run every candidate
threshold through one calibrated engine.  They must return *exactly* the
values the fresh-engine-per-threshold procedure produces.  Verified here
by rebuilding that procedure inline and comparing tuples with ``==``
(floats included — same ops in the same order, so bit equality is the
requirement, not approx).
"""

import numpy as np

from repro.core.pipeline import QuantizedInferenceEngine, run_scheme
from repro.core.schemes import odq_scheme
from repro.core.threshold import adaptive_threshold_search, threshold_sweep

THETAS = [2.0, 1.0, 0.5, 0.25]


def _fresh_engine_points(model, x_calib, x_val, y_val):
    """The pre-cache procedure: one engine built per threshold."""
    points = []
    for theta in THETAS:
        engine = QuantizedInferenceEngine(model, odq_scheme(float(theta)))
        try:
            engine.calibrate(x_calib)
            acc = engine.evaluate(x_val, y_val)
            sens = engine.mean_sensitive_fraction()
        finally:
            engine.restore()
        points.append((float(theta), acc, 1.0 - sens, sens))
    return points


class TestSweepEquivalence:
    def test_sweep_identical_to_fresh_engines(
        self, trained_resnet, tiny_dataset, calib_batch
    ):
        model, _ = trained_resnet
        x_calib = calib_batch[:16]
        x_val, y_val = tiny_dataset.x_test[:32], tiny_dataset.y_test[:32]

        expected = _fresh_engine_points(model, x_calib, x_val, y_val)
        points = threshold_sweep(model, x_calib, x_val, y_val, THETAS)
        got = [
            (p.threshold, p.accuracy, p.insensitive_fraction, p.sensitive_fraction)
            for p in points
        ]
        assert got == expected  # byte-identical, not approx

    def test_sweep_restores_model(self, trained_resnet, tiny_dataset, calib_batch):
        """The shared engine must leave the model weights untouched."""
        model, _ = trained_resnet
        before = [p.data.copy() for p in model.parameters()]
        threshold_sweep(
            model, calib_batch[:16],
            tiny_dataset.x_test[:16], tiny_dataset.y_test[:16], THETAS[:2],
        )
        after = model.parameters()
        assert all(np.array_equal(b, a.data) for b, a in zip(before, after))

    def test_search_matches_old_procedure(
        self, trained_resnet, tiny_dataset, calib_batch
    ):
        """Halving search through the shared engine reproduces the
        fresh-run-per-candidate accuracies exactly."""
        model, _ = trained_resnet
        x_calib = calib_batch[:16]
        x_val, y_val = tiny_dataset.x_test[:32], tiny_dataset.y_test[:32]
        result = adaptive_threshold_search(
            model, x_calib, x_val, y_val,
            max_accuracy_drop=-1.0,  # force full trace
            start_threshold=1.0, max_halvings=3,
        )
        for theta, acc in result.trace:
            ref, _ = run_scheme(
                model, odq_scheme(theta), x_calib, x_val, y_val
            )
            assert acc == ref

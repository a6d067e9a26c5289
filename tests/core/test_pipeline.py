"""Quantized inference engine: install/restore, calibration, evaluation."""

import time

import numpy as np
import pytest

from repro.core.base import PHASES
from repro.core.odq import ODQConvExecutor
from repro.core.pipeline import InstrumentedConv, QuantizedInferenceEngine, run_scheme
from repro.core.schemes import drq_scheme, fp32_scheme, odq_scheme, static_scheme
from repro.models import resnet20
from repro.nn import Linear, Sequential, Tensor


@pytest.fixture
def model(rng):
    return resnet20(scale=0.25, rng=rng)


class TestInstallRestore:
    def test_all_convs_instrumented(self, model):
        engine = QuantizedInferenceEngine(model, fp32_scheme())
        n_instr = len([m for _, m in model.named_modules() if isinstance(m, InstrumentedConv)])
        assert n_instr == 19
        assert len(engine.executors) == 19
        engine.restore()

    def test_restore_reinstates_originals(self, model, rng):
        x = rng.normal(size=(1, 3, 16, 16))
        model.eval()
        before = model(Tensor(x)).data
        engine = QuantizedInferenceEngine(model, fp32_scheme())
        engine.restore()
        assert not any(isinstance(m, InstrumentedConv) for _, m in model.named_modules())
        np.testing.assert_array_equal(model(Tensor(x)).data, before)

    def test_skip_first_conv(self, model):
        engine = QuantizedInferenceEngine(model, fp32_scheme(), skip_first_conv=True)
        assert len(engine.executors) == 18
        engine.restore()

    def test_layer_names_ordered(self, model):
        engine = QuantizedInferenceEngine(model, fp32_scheme())
        names = list(engine.executors)
        assert names[0].startswith("C1:")
        assert names[-1].startswith("C19:")
        engine.restore()

    def test_no_convs_rejected(self):
        model = Sequential(Linear(4, 2))
        with pytest.raises(ValueError):
            QuantizedInferenceEngine(model, fp32_scheme())


class TestCalibrationAndRun:
    def test_forward_before_calibrate_raises(self, model, rng):
        engine = QuantizedInferenceEngine(model, static_scheme(8))
        with pytest.raises(RuntimeError):
            engine.forward(rng.normal(size=(1, 3, 16, 16)))
        engine.restore()

    def test_fp32_engine_matches_plain_model(self, model, rng):
        x = rng.normal(size=(2, 3, 16, 16))
        model.eval()
        ref = model(Tensor(x)).data
        engine = QuantizedInferenceEngine(model, fp32_scheme())
        engine.calibrate(x)
        out = engine.forward(x)
        engine.restore()
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_evaluate_returns_fraction(self, model, tiny_dataset):
        engine = QuantizedInferenceEngine(model, static_scheme(16))
        engine.calibrate(tiny_dataset.x_train[:16])
        acc = engine.evaluate(tiny_dataset.x_test[:32], tiny_dataset.y_test[:32])
        engine.restore()
        assert 0.0 <= acc <= 1.0

    def test_records_populated_for_odq(self, model, rng):
        x = rng.uniform(0, 1, (2, 3, 16, 16))
        engine = QuantizedInferenceEngine(model, odq_scheme(0.3))
        engine.calibrate(x)
        engine.forward(x)
        recs = engine.records
        assert len(recs) == 19
        assert all(r.outputs_total > 0 for r in recs.values())
        assert engine.total_macs()["pred_int2"] > 0
        assert 0.0 <= engine.mean_sensitive_fraction() <= 1.0
        engine.restore()

    def test_reset_records(self, model, rng):
        x = rng.uniform(0, 1, (1, 3, 16, 16))
        engine = QuantizedInferenceEngine(model, odq_scheme(0.3))
        engine.calibrate(x)
        engine.forward(x)
        engine.reset_records()
        assert all(r.outputs_total == 0 for r in engine.records.values())
        assert all(not r.path_calls and sum(r.phase_calls) == 0
                   for r in engine.records.values())
        engine.restore()

    def test_phase_times_recorded_per_layer(self, model, rng):
        """One infer times every phase of every ODQ layer on its record,
        tracing off, and the timed phases fit inside the infer call."""
        x = rng.uniform(0, 1, (2, 3, 16, 16))
        engine = QuantizedInferenceEngine(model, odq_scheme(0.3))
        engine.calibrate(x)
        engine.reset_records()
        t0 = time.perf_counter_ns()
        engine.infer(x)
        wall_ns = time.perf_counter_ns() - t0
        records = list(engine.records.values())
        assert len(records) == 19
        for rec in records:
            assert rec.phase_calls == [1] * len(PHASES)
            assert all(ns > 0 for ns in rec.phase_ns)
        assert sum(sum(rec.phase_ns) for rec in records) <= wall_ns
        engine.restore()

    def test_capture_inputs(self, model, rng):
        x = rng.uniform(0, 1, (1, 3, 16, 16))
        engine = QuantizedInferenceEngine(model, drq_scheme())
        engine.capture_inputs = True
        engine.calibrate(x)
        engine.forward(x)
        for rec in engine.records.values():
            assert rec.extra["last_input"].ndim == 4
        engine.restore()


class TestCalibrationPass:
    """The FP calibration pass runs only for executors that observe it."""

    def test_absolute_odq_runs_no_calibration_pass(self, rng, monkeypatch):
        calls = []
        real = ODQConvExecutor.calibrate

        def counting(ex, x):
            calls.append(ex.info.name)
            return real(ex, x)

        monkeypatch.setattr(ODQConvExecutor, "calibrate", counting)
        x = rng.uniform(0, 1, (6, 3, 16, 16))
        engine = QuantizedInferenceEngine(
            resnet20(scale=0.25, rng=np.random.default_rng(3)), odq_scheme(0.3)
        )
        engine.calibrate(x)
        assert calls == []
        assert engine.calibrated and engine.mode == "run"

        monkeypatch.setattr(ODQConvExecutor, "reads_calibration", True)
        forced = QuantizedInferenceEngine(
            resnet20(scale=0.25, rng=np.random.default_rng(3)), odq_scheme(0.3)
        )
        forced.calibrate(x)
        assert sorted(calls) == sorted(forced.executors)
        for batch in (x[:1], x[:3], x, 0.35 * x):
            np.testing.assert_array_equal(engine.infer(batch), forced.infer(batch))

    @pytest.mark.parametrize(
        "scheme",
        [odq_scheme(0.3, threshold_mode="scaled"), static_scheme(8), drq_scheme(8, 4)],
        ids=["odq-scaled", "int8", "drq84"],
    )
    def test_observing_schemes_still_calibrate(self, model, rng, scheme):
        engine = QuantizedInferenceEngine(model, scheme)
        assert all(ex.reads_calibration for ex in engine.executors.values())
        engine.calibrate(rng.uniform(0, 1, (6, 3, 16, 16)))
        for ex in engine.executors.values():
            if isinstance(ex, ODQConvExecutor):
                assert ex.output_std is not None and ex.output_std > 0
                assert len(ex._std_acc) == 1
            else:
                assert ex.observer.count > 0
                assert ex.observer.lo <= ex.observer.hi
        engine.restore()


class TestRunScheme:
    def test_restores_even_on_success(self, model, tiny_dataset):
        acc, records = run_scheme(
            model, static_scheme(8),
            tiny_dataset.x_train[:16], tiny_dataset.x_test[:16], tiny_dataset.y_test[:16],
        )
        assert not any(isinstance(m, InstrumentedConv) for _, m in model.named_modules())
        assert len(records) == 19
        assert 0.0 <= acc <= 1.0

    def test_restores_on_failure(self, model):
        bad_x = np.zeros((0, 3, 16, 16))  # empty calibration -> observer error
        with pytest.raises(Exception):
            run_scheme(model, static_scheme(8), bad_x, bad_x, np.zeros(0))
        assert not any(isinstance(m, InstrumentedConv) for _, m in model.named_modules())

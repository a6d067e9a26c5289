"""Failure injection: degenerate inputs the pipeline must survive or
reject loudly (never silently corrupt).
"""

import numpy as np
import pytest

from repro.core.colcache import weights_from_gemm_layout
from repro.core.drq import DRQConvExecutor
from repro.core.odq import ODQConvExecutor
from repro.core.static_quant import StaticQuantConvExecutor
from repro.nn import Conv2d, Tensor


class TestDegenerateActivations:
    def test_all_zero_input(self, rng):
        """Constant-zero feature maps (a dead channel upstream) must not
        produce NaNs or division-by-zero anywhere."""
        conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        x = np.zeros((1, 3, 6, 6))
        for cls, kw in [
            (ODQConvExecutor, {"threshold": 0.2}),
            (DRQConvExecutor, {"threshold": 0.5}),
            (StaticQuantConvExecutor, {"bits": 8}),
        ]:
            ex = cls(conv, "C", **kw)
            ex.calibrate(np.abs(rng.normal(size=(2, 3, 6, 6))))
            ex.freeze()
            out = ex.run(x)
            assert np.isfinite(out).all()

    def test_constant_input(self, rng):
        """Zero-variance inputs give degenerate quantization ranges."""
        conv = Conv2d(2, 2, 3, padding=1, rng=rng)
        x = np.full((1, 2, 5, 5), 0.7)
        ex = ODQConvExecutor(conv, "C", threshold=0.2)
        ex.calibrate(x)
        ex.freeze()
        assert np.isfinite(ex.run(x)).all()

    def test_huge_dynamic_range(self, rng):
        conv = Conv2d(2, 2, 3, rng=rng)
        x = rng.uniform(0, 1, (1, 2, 5, 5))
        x[0, 0, 0, 0] = 1e6
        ex = StaticQuantConvExecutor(conv, "C", bits=8)
        ex.calibrate(x)
        ex.freeze()
        assert np.isfinite(ex.run(x)).all()


class TestDegenerateWeights:
    def test_all_zero_weights(self, rng):
        conv = Conv2d(2, 2, 3, padding=1, rng=rng)
        conv.weight.data = np.zeros_like(conv.weight.data)
        x = rng.uniform(0, 1, (1, 2, 5, 5))
        ex = ODQConvExecutor(conv, "C", threshold=0.2)
        ex.calibrate(x)
        ex.freeze()
        out = ex.run(x)
        # With zero weights the only output contribution is the bias.
        expected = np.broadcast_to(conv.bias.data.reshape(1, -1, 1, 1), out.shape)
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_single_giant_weight(self, rng):
        """One outlier weight must not destroy the whole layer (the
        percentile scale saturates it instead)."""
        conv = Conv2d(2, 2, 3, padding=1, rng=rng)
        conv.weight.data[0, 0, 0, 0] = 1e4
        x = rng.uniform(0, 1, (1, 2, 5, 5))
        ex = ODQConvExecutor(conv, "C", threshold=0.2)
        ex.calibrate(x)
        ex.freeze()
        assert np.isfinite(ex.run(x)).all()
        # The quantized outlier saturates at the grid edge.
        qw = weights_from_gemm_layout(ex._packed.wmat_full, conv.weight.data.shape)
        assert qw.max() == ex.qp_w.qmax


class TestMalformedPipelineUse:
    def test_forward_with_wrong_channel_count(self, rng):
        from repro.core.pipeline import QuantizedInferenceEngine
        from repro.core.schemes import static_scheme
        from repro.models import resnet20

        model = resnet20(scale=0.25, rng=rng)
        engine = QuantizedInferenceEngine(model, static_scheme(8))
        engine.calibrate(rng.uniform(0, 1, (4, 3, 16, 16)))
        with pytest.raises(ValueError):
            engine.forward(rng.uniform(0, 1, (1, 5, 16, 16)))
        engine.restore()

    def test_double_restore_harmless(self, rng):
        from repro.core.pipeline import QuantizedInferenceEngine
        from repro.core.schemes import static_scheme
        from repro.models import resnet20

        model = resnet20(scale=0.25, rng=rng)
        engine = QuantizedInferenceEngine(model, static_scheme(8))
        engine.restore()
        engine.restore()
        model.eval()
        out = model(Tensor(rng.uniform(0, 1, (1, 3, 16, 16))))
        assert out.shape == (1, 10)

    def test_empty_batch_evaluate(self, rng):
        from repro.core.pipeline import QuantizedInferenceEngine
        from repro.core.schemes import static_scheme
        from repro.models import resnet20

        model = resnet20(scale=0.25, rng=rng)
        engine = QuantizedInferenceEngine(model, static_scheme(8))
        engine.calibrate(rng.uniform(0, 1, (4, 3, 16, 16)))
        # An empty dataset used to surface as a bare ZeroDivisionError from
        # `correct / len(x)`; the guarded division (NUM402) raises a
        # diagnosable ValueError instead.
        with pytest.raises(ValueError, match="empty dataset"):
            engine.evaluate(np.zeros((0, 3, 16, 16)), np.zeros(0, dtype=int))
        engine.restore()


class TestSimulatorDegenerates:
    def test_empty_network(self):
        from repro.accel.simulator import build_accelerator

        sim = build_accelerator("ODQ").simulate([])
        assert sim.total_cycles == 0
        assert sim.total_energy.total_pj == 0

    def test_layer_with_zero_images(self):
        from repro.accel.simulator import LayerWorkload, build_accelerator

        wl = LayerWorkload(
            name="C", in_channels=4, out_channels=4, kernel=3,
            out_h=4, out_w=4, images=0, macs={"pred_int2": 0, "exec_int4": 0},
        )
        sim = build_accelerator("ODQ").simulate([wl])
        assert np.isfinite(sim.total_cycles)

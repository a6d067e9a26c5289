"""Executor infrastructure: layer info, records, and exact integer conv."""

import numpy as np
import pytest

from repro.core.base import ConvLayerInfo, LayerRecord, float_conv2d, int_conv2d
from repro.core.masks import SensitivityMask
from repro.nn import Conv2d, Tensor


class TestConvLayerInfo:
    def test_from_conv(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1)
        info = ConvLayerInfo.from_conv(conv, "C1")
        assert info.macs_per_output == 27
        assert info.output_hw(16, 16) == (8, 8)

    def test_macs_per_output_1x1(self):
        conv = Conv2d(16, 4, 1)
        assert ConvLayerInfo.from_conv(conv, "x").macs_per_output == 16


class TestIntConv:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_float_conv_on_integers(self, rng, stride, padding):
        q = rng.integers(0, 16, size=(2, 3, 8, 8))
        qw = rng.integers(-8, 8, size=(4, 3, 3, 3))
        out = int_conv2d(q, qw, stride, padding)
        ref = float_conv2d(q.astype(float), qw.astype(float), None, stride, padding)
        np.testing.assert_array_equal(out, np.rint(ref).astype(np.int64))

    def test_exact_at_int16_extremes(self):
        """Worst-case INT16 accumulation must stay exact in float64 GEMM."""
        q = np.full((1, 64, 8, 8), 65535, dtype=np.int64)
        qw = np.full((1, 64, 3, 3), 32767, dtype=np.int64)
        out = int_conv2d(q, qw, 1, 1)
        # Central output accumulates 64*9 maximal products.
        expected = 65535 * 32767 * 64 * 9
        assert out.max() == expected

    def test_matches_autograd_conv(self, rng):
        """int_conv2d and nn.functional.conv2d agree on integer data."""
        from repro.nn import functional as F

        q = rng.integers(0, 4, size=(1, 2, 5, 5))
        qw = rng.integers(-2, 2, size=(3, 2, 3, 3))
        a = int_conv2d(q, qw, 1, 1)
        b = F.conv2d(Tensor(q.astype(float)), Tensor(qw.astype(float)), None, 1, 1).data
        np.testing.assert_array_equal(a, b.astype(np.int64))


class TestLayerRecord:
    def test_mask_accumulation(self):
        info = ConvLayerInfo("C1", 3, 4, 3, 1, 1)
        rec = LayerRecord(info=info)
        m1 = SensitivityMask(np.zeros((1, 4, 2, 2), dtype=bool), 0.5)
        m2 = SensitivityMask(np.ones((1, 4, 2, 2), dtype=bool), 0.5)
        rec.outputs_total = 32
        for m in (m1, m2):
            rec.add_counts(m.per_channel_counts(), m.sensitive_count)
        assert rec.sensitive_total == 16
        assert rec.sensitive_fraction == 0.5
        np.testing.assert_array_equal(rec.per_channel_sensitive, [4, 4, 4, 4])

    def test_empty_record_fractions(self):
        rec = LayerRecord(info=ConvLayerInfo("C1", 1, 1, 1, 1, 0))
        assert rec.sensitive_fraction == 0.0
        assert rec.insensitive_fraction == 1.0

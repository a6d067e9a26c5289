"""DRQ baseline: region masks, mixed precision, calibration, MAC split."""

import numpy as np
import pytest

from repro.core.drq import DRQConvExecutor, region_mean_magnitude, upsample_mask
from repro.nn import Conv2d


def make_executor(rng, **kwargs):
    conv = Conv2d(3, 4, 3, padding=1, rng=rng)
    return DRQConvExecutor(conv, "C1", **kwargs)


def calibrated(rng, x, **kwargs):
    ex = make_executor(rng, **kwargs)
    ex.calibrate(x)
    ex.freeze()
    return ex


class TestRegionMagnitude:
    def test_shape(self):
        x = np.ones((2, 3, 8, 8))
        out = region_mean_magnitude(x, 2)
        assert out.shape == (2, 1, 4, 4)

    def test_uneven_size_padded(self):
        x = np.ones((1, 1, 5, 5))
        out = region_mean_magnitude(x, 2)
        assert out.shape == (1, 1, 3, 3)
        np.testing.assert_allclose(out, 1.0)

    def test_values_are_means_of_abs(self):
        x = np.zeros((1, 2, 2, 2))
        x[0, 0] = [[1, -1], [1, -1]]  # channel 0: |x| mean 1; channel 1: 0
        out = region_mean_magnitude(x, 2)
        assert out[0, 0, 0, 0] == pytest.approx(0.5)

    def test_upsample_roundtrip_shape(self):
        m = np.array([[[[True, False], [False, True]]]])
        up = upsample_mask(m, 3, 6, 6)
        assert up.shape == (1, 1, 6, 6)
        assert up[0, 0, :3, :3].all()
        assert not up[0, 0, :3, 3:].any()

    def test_upsample_crops_to_input(self):
        m = np.ones((1, 1, 3, 3), dtype=bool)
        up = upsample_mask(m, 2, 5, 5)
        assert up.shape == (1, 1, 5, 5)


class TestCalibration:
    def test_threshold_hits_target_fraction(self, rng):
        x = rng.uniform(0, 1, (4, 3, 8, 8))
        ex = calibrated(rng, x, target_sensitive=0.3)
        mask = ex.input_mask(x)
        # Threshold chosen as the 70th percentile of calibration regions.
        assert 0.15 < mask.mean() < 0.45

    def test_explicit_threshold_respected(self, rng):
        x = rng.uniform(0, 1, (2, 3, 8, 8))
        ex = calibrated(rng, x, threshold=0.5)
        assert ex.threshold == 0.5

    def test_freeze_without_calibration_raises(self, rng):
        ex = make_executor(rng)
        with pytest.raises(RuntimeError):
            ex.freeze()

    def test_invalid_precision_pair(self, rng):
        with pytest.raises(ValueError):
            make_executor(rng, hi_bits=4, lo_bits=4)

    def test_invalid_target(self, rng):
        with pytest.raises(ValueError):
            make_executor(rng, target_sensitive=1.5)


class TestMixedPrecision:
    def test_all_sensitive_equals_hi_precision(self, rng):
        x = rng.uniform(0.5, 1, (1, 3, 6, 6))
        ex = calibrated(rng, x, threshold=0.0)  # everything sensitive
        out = ex.run(x)
        mask = np.ones((1, 1, 6, 6), dtype=bool)
        np.testing.assert_allclose(out, ex.mixed_precision_output(x, mask))

    def test_none_sensitive_equals_lo_precision(self, rng):
        x = rng.uniform(0, 1, (1, 3, 6, 6))
        ex = calibrated(rng, x, threshold=np.inf)
        out = ex.run(x)
        np.testing.assert_allclose(out, ex.low_precision_output(x), atol=1e-12)

    def test_hi_more_accurate_than_lo(self, rng):
        """8-4 DRQ must beat 4-2 DRQ in output fidelity."""
        x = rng.uniform(0, 1, (2, 3, 8, 8))
        ref = None
        errs = {}
        for hi, lo in [(8, 4), (4, 2)]:
            ex = calibrated(rng, x, hi_bits=hi, lo_bits=lo)
            if ref is None:
                ref = ex.reference_forward(x)
            errs[(hi, lo)] = np.abs(ex.run(x) - ref).mean()
        assert errs[(8, 4)] < errs[(4, 2)]

    def test_mixed_between_pure_lo_and_pure_hi(self, rng):
        x = rng.uniform(0, 1, (1, 3, 8, 8))
        ex = calibrated(rng, x, target_sensitive=0.5)
        ref = ex.reference_forward(x)
        err_mixed = np.abs(ex.run(x) - ref).mean()
        err_lo = np.abs(ex.low_precision_output(x) - ref).mean()
        assert err_mixed <= err_lo + 1e-12


class TestMACAccounting:
    def test_split_sums_to_total(self, rng):
        x = rng.uniform(0, 1, (2, 3, 8, 8))
        ex = calibrated(rng, x)
        ex.run(x)
        total = ex.record.macs["drq_hi"] + ex.record.macs["drq_lo"]
        expected = 2 * 8 * 8 * 4 * ex.info.macs_per_output
        assert total == expected

    def test_all_sensitive_only_padding_left_lo(self, rng):
        """With everything sensitive, only zero-padding MACs stay low
        (padding pixels are outside every sensitivity region)."""
        from repro.core.stats import input_fraction_per_output

        x = rng.uniform(0.5, 1, (1, 3, 6, 6))
        ex = calibrated(rng, x, threshold=0.0)
        ex.run(x)
        ones = np.ones((1, 1, 6, 6), dtype=bool)
        frac_real = input_fraction_per_output(ones, 3, 1, 1)
        real_macs = int(round(frac_real.sum() * 9)) * 3 * 4
        total = 1 * 6 * 6 * 4 * ex.info.macs_per_output
        assert ex.record.macs["drq_hi"] == real_macs
        assert ex.record.macs["drq_lo"] == total - real_macs

    def test_input_sensitivity_recorded(self, rng):
        x = rng.uniform(0, 1, (1, 3, 6, 6))
        ex = calibrated(rng, x, target_sensitive=0.5)
        ex.run(x)
        assert ex.record.input_total == 6 * 6 * 3  # one image, C_in = 3
        frac = ex.record.input_sensitive_total / ex.record.input_total
        assert 0.2 < frac < 0.8
        assert "last_input_mask" in ex.record.extra

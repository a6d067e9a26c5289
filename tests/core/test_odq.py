"""ODQ executor: the paper's Eq.-3 semantics, masks, and MAC accounting."""

import numpy as np
import pytest

from repro.core.base import float_conv2d
from repro.core.odq import ODQConvExecutor
from repro.nn import Conv2d
from repro.quant.bitsplit import split_planes
from repro.quant.uniform import quantize


def make_executor(rng, threshold=0.3, in_c=3, out_c=4, k=3, stride=1, padding=1,
                  bias=True, **kwargs):
    conv = Conv2d(in_c, out_c, k, stride=stride, padding=padding, bias=bias, rng=rng)
    ex = ODQConvExecutor(conv, "C1", threshold=threshold, **kwargs)
    return ex


def calibrated(rng, x, **kwargs):
    ex = make_executor(rng, **kwargs)
    ex.calibrate(x)
    ex.freeze()
    return ex


class TestLifecycle:
    def test_run_before_freeze_raises(self, rng):
        ex = make_executor(rng)
        with pytest.raises(RuntimeError):
            ex.run(rng.uniform(0, 1, (1, 3, 6, 6)))

    def test_negative_threshold_rejected(self, rng):
        with pytest.raises(ValueError):
            make_executor(rng, threshold=-0.1)

    def test_bad_bit_split_rejected(self, rng):
        with pytest.raises(ValueError):
            make_executor(rng, low_bits=4, total_bits=4)


class TestEq3Semantics:
    """The heart of the reproduction: outputs decompose exactly per Eq. 3."""

    def test_full_result_equals_static_int4(self, rng):
        x = rng.uniform(0, 1, (2, 3, 6, 6))
        ex = calibrated(rng, x)
        # Reconstruct what an INT4 static-quant conv computes, by hand.
        qp_a = ex._qp_a_for(x)
        q = quantize(x, qp_a)
        deq_x = (q - qp_a.zero_point) * qp_a.scale
        deq_w = quantize(ex.conv.weight.data, ex.qp_w) * ex.qp_w.scale
        ref = float_conv2d(deq_x, deq_w, ex.conv.bias.data, 1, 1)
        # Padded positions must behave as real zeros (zero-point padding).
        np.testing.assert_allclose(ex.full_result(x), ref, atol=1e-9)

    def test_predictor_plus_cross_terms_equals_full(self, rng):
        """full - partial == the three executor cross terms (Eq. 3)."""
        x = rng.uniform(0, 1, (1, 2, 5, 5))
        # Disable the E[q_l] compensation: the raw partial is exactly the
        # shifted HH term, so full - partial is exactly the cross terms.
        ex = calibrated(rng, x, in_c=2, out_c=3, padding=1,
                        compensate_low_bits=False)

        qp_a = ex._qp_a_for(x)
        from repro.utils.im2col import pad_nchw
        q = quantize(x, qp_a)
        q = pad_nchw(q, 1, value=qp_a.zero_point).astype(np.int64)
        a_planes = split_planes(q, qp_a, ex.low_bits)
        # Assemble the executor-side cross terms via explicit convolutions.
        from repro.core.base import int_conv2d

        qw = quantize(ex.conv.weight.data, ex.qp_w)
        hl = int_conv2d(a_planes.high, split_planes(qw, ex.qp_w, 2).low,
                        ex.conv.stride, 0) << 2
        lh = int_conv2d(a_planes.low, split_planes(qw, ex.qp_w, 2).high,
                        ex.conv.stride, 0) << 2
        ll = int_conv2d(a_planes.low, split_planes(qw, ex.qp_w, 2).low,
                        ex.conv.stride, 0)
        remaining = (hl + lh + ll) * qp_a.scale * ex.qp_w.scale

        full = ex.full_result(x)
        partial = ex.predict_partial(x)
        np.testing.assert_allclose(full - partial, remaining, atol=1e-9)

    def test_output_mixes_full_and_partial_by_mask(self, rng):
        x = rng.uniform(0, 1, (1, 3, 6, 6))
        ex = calibrated(rng, x, threshold=0.3)
        out = ex.run(x)
        mask = ex.record.last_mask.mask
        full = ex.full_result(x)
        partial = ex.predict_partial(x)
        np.testing.assert_allclose(out[mask], full[mask], atol=1e-12)
        np.testing.assert_allclose(out[~mask], partial[~mask], atol=1e-12)

    def test_zero_threshold_everything_sensitive_matches_int4(self, rng):
        """theta=0 makes ODQ equivalent to static INT4 (every nonzero output)."""
        x = rng.uniform(0.1, 1, (1, 3, 6, 6))
        ex = calibrated(rng, x, threshold=0.0)
        out = ex.run(x)
        full = ex.full_result(x)
        mask = ex.record.last_mask.mask
        np.testing.assert_allclose(out[mask], full[mask])
        assert ex.record.sensitive_fraction > 0.8

    def test_infinite_threshold_pure_predictor(self, rng):
        x = rng.uniform(0, 1, (1, 3, 6, 6))
        ex = calibrated(rng, x, threshold=np.inf)
        out = ex.run(x)
        np.testing.assert_allclose(out, ex.predict_partial(x))
        assert ex.record.sensitive_total == 0


class TestPredictionQuality:
    def test_partial_correlates_with_full(self, rng):
        """The HBS partial must predict output magnitude (Section 3's premise)."""
        x = rng.uniform(0, 1, (2, 3, 8, 8))
        ex = calibrated(rng, x)
        full = ex.full_result(x).reshape(-1)
        partial = ex.predict_partial(x).reshape(-1)
        corr = np.corrcoef(np.abs(full), np.abs(partial))[0, 1]
        assert corr > 0.7

    def test_low_bit_compensation_improves_prediction(self):
        """The E[q_l]*sum(w) correction must reduce the predictor's error
        (the reason it is on by default).  Averaged over several random
        layers — the correction is statistical, not per-instance."""
        errs_plain, errs_comp = [], []
        for seed in range(3):
            r = np.random.default_rng(seed)
            x = np.abs(r.normal(size=(4, 16, 10, 10))) * 0.3
            conv = Conv2d(16, 8, 3, padding=1, rng=r)
            pair = []
            for comp in (False, True):
                ex = ODQConvExecutor(conv, "C", threshold=0.2,
                                     compensate_low_bits=comp)
                ex.calibrate(x)
                ex.freeze()
                pair.append(ex)
            full = pair[0].full_result(x)
            errs_plain.append(np.abs(full - pair[0].predict_partial(x)).mean())
            errs_comp.append(np.abs(full - pair[1].predict_partial(x)).mean())
        assert np.mean(errs_comp) < np.mean(errs_plain)

    def test_precision_loss_small_on_sensitive(self, rng):
        """Sensitive outputs are exact w.r.t. INT4; error vs FP32 is only
        the quantization rounding (the Section-6.1 per-layer numbers)."""
        x = rng.uniform(0, 1, (2, 3, 8, 8))
        ex = calibrated(rng, x, threshold=0.2)
        out = ex.run(x)
        ref = ex.reference_forward(x)
        mask = ex.record.last_mask.mask
        if mask.any():
            loss_sensitive = np.abs(out - ref)[mask].mean()
            loss_insensitive = np.abs(out - ref)[~mask].mean()
            assert loss_sensitive < loss_insensitive


class TestAccounting:
    def test_mac_counts(self, rng):
        x = rng.uniform(0, 1, (2, 3, 6, 6))
        ex = calibrated(rng, x, threshold=0.3)
        ex.run(x)
        n_out = 2 * 4 * 6 * 6
        mpo = 3 * 9
        assert ex.record.macs["pred_int2"] == n_out * mpo
        assert ex.record.macs["exec_int4"] == ex.record.sensitive_total * mpo

    def test_records_accumulate_across_batches(self, rng):
        x = rng.uniform(0, 1, (2, 3, 6, 6))
        ex = calibrated(rng, x)
        ex.run(x)
        first = ex.record.outputs_total
        ex.run(x)
        assert ex.record.outputs_total == 2 * first

    def test_sensitivity_mask_method_matches_run(self, rng):
        x = rng.uniform(0, 1, (1, 3, 6, 6))
        ex = calibrated(rng, x)
        m1 = ex.sensitivity_mask(x)
        ex.run(x)
        np.testing.assert_array_equal(m1.mask, ex.record.last_mask.mask)

    def test_no_bias_layer(self, rng):
        x = rng.uniform(0, 1, (1, 3, 6, 6))
        ex = calibrated(rng, x, bias=False)
        out = ex.run(x)
        assert np.isfinite(out).all()

    def test_collect_partials(self, rng):
        x = rng.uniform(0, 1, (1, 3, 6, 6))
        ex = make_executor(rng, collect_partials=True)
        ex.calibrate(x)
        ex.freeze()
        ex.run(x)
        assert "partial_abs_samples" in ex.record.extra

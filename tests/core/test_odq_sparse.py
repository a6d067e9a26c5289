"""Sparse result generation: bit-exactness, dispatch, and the column cache.

The sparse executor path gathers only sensitive rows of the column matrix
and computes their exact results in one GEMM against the packed
``wmat_full`` operand.  These tests pin the contract:

* dense and sparse outputs are **bit-exact** (``assert_array_equal``, no
  tolerance) across stride/padding/bias/threshold/threshold-mode space;
* the MAC census and sensitivity accounting are *identical* across paths
  (the hardware cost model is mask-based, not path-based);
* ``auto`` dispatches on the sensitive-row density crossover;
* the :mod:`repro.core.colcache` primitives and the ``cols`` overloads of
  the base conv helpers are exact.
"""

import numpy as np
import pytest

from repro.core.colcache import ColumnCache
from repro.core.odq import (
    EXEC_PATHS,
    ODQConvExecutor,
    SPARSE_ROW_CROSSOVER,
    odq_mixed_conv,
    odq_weight_qparams,
)
from repro.nn import Conv2d
from repro.quant.uniform import affine_qparams, quantize
from repro.utils.im2col import im2col, pad_nchw


def _pair(rng, threshold, *, in_c=3, out_c=4, k=3, stride=1, padding=1,
          bias=True, x_shape=(2, 3, 7, 7), **kwargs):
    """Two executors on the *same* conv, calibrated identically:
    one forced dense, one forced sparse."""
    conv = Conv2d(in_c, out_c, k, stride=stride, padding=padding,
                  bias=bias, rng=rng)
    x = rng.uniform(0, 1, x_shape)
    executors = []
    for path in ("dense", "sparse"):
        ex = ODQConvExecutor(conv, "C1", threshold=threshold,
                             exec_path=path, **kwargs)
        ex.calibrate(x)
        ex.freeze()
        executors.append(ex)
    return executors[0], executors[1], x


class TestBitExactness:
    """Sparse output == dense output, to the last bit."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("bias", [True, False])
    def test_geometry_grid(self, rng, stride, padding, bias):
        dense, sparse, x = _pair(rng, 0.3, stride=stride, padding=padding,
                                 bias=bias)
        np.testing.assert_array_equal(dense.run(x), sparse.run(x))

    @pytest.mark.parametrize("threshold", [0.0, 0.15, 0.6, 1e9, np.inf])
    def test_threshold_extremes(self, rng, threshold):
        """theta=0 (everything sensitive) through theta=inf (nothing)."""
        dense, sparse, x = _pair(rng, threshold)
        np.testing.assert_array_equal(dense.run(x), sparse.run(x))

    @pytest.mark.parametrize("mode", ["absolute", "scaled"])
    def test_threshold_modes(self, rng, mode):
        dense, sparse, x = _pair(rng, 0.4, threshold_mode=mode)
        np.testing.assert_array_equal(dense.run(x), sparse.run(x))

    def test_no_compensation(self, rng):
        dense, sparse, x = _pair(rng, 0.3, compensate_low_bits=False)
        np.testing.assert_array_equal(dense.run(x), sparse.run(x))

    def test_auto_matches_both(self, rng):
        """Whatever auto picks, the output is the same bit pattern."""
        conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        x = rng.uniform(0, 1, (2, 3, 7, 7))
        outs = []
        for path in EXEC_PATHS:
            ex = ODQConvExecutor(conv, "C1", threshold=0.3, exec_path=path)
            ex.calibrate(x)
            ex.freeze()
            outs.append(ex.run(x))
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])

    def test_infinite_threshold_sparse_is_pure_predictor(self, rng):
        _, sparse, x = _pair(rng, np.inf)
        np.testing.assert_allclose(sparse.run(x), sparse.predict_partial(x))
        assert sparse.record.sensitive_total == 0


class TestAccountingParity:
    """The hardware cost model must not depend on the software path."""

    @pytest.mark.parametrize("threshold", [0.0, 0.3, np.inf])
    def test_macs_and_sensitivity_identical(self, rng, threshold):
        dense, sparse, x = _pair(rng, threshold)
        dense.run(x)
        sparse.run(x)
        assert dense.record.macs == sparse.record.macs
        assert dense.record.sensitive_total == sparse.record.sensitive_total
        assert dense.record.outputs_total == sparse.record.outputs_total
        np.testing.assert_array_equal(dense.record.last_mask.mask,
                                      sparse.record.last_mask.mask)

    def test_exec_path_census(self, rng):
        dense, sparse, x = _pair(rng, 0.3)
        dense.run(x)
        sparse.run(x)
        assert dense.record.extra["exec_path_calls"] == {"dense": 1}
        assert sparse.record.extra["exec_path_calls"] == {"sparse": 1}
        # Dense computes every row; sparse only the flagged ones.
        assert dense.record.extra["exec_rows_computed"] == \
            dense.record.extra["exec_rows_total"]
        assert sparse.record.extra["exec_rows_computed"] <= \
            sparse.record.extra["exec_rows_total"]
        # Both paths record the same dense-equivalent FLOP budget.
        assert dense.record.extra["exec_flops_full_dense"] == \
            sparse.record.extra["exec_flops_full_dense"]


class TestAutoDispatch:
    def test_low_density_picks_sparse(self, rng):
        conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        x = rng.uniform(0, 1, (2, 3, 8, 8))
        ex = ODQConvExecutor(conv, "C1", threshold=1e9, exec_path="auto")
        ex.calibrate(x)
        ex.freeze()
        ex.run(x)
        assert ex.record.extra["exec_path_calls"] == {"sparse": 1}

    def test_high_density_picks_dense(self, rng):
        conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        x = rng.uniform(0.1, 1, (2, 3, 8, 8))
        ex = ODQConvExecutor(conv, "C1", threshold=0.0, exec_path="auto")
        ex.calibrate(x)
        ex.freeze()
        ex.run(x)
        assert ex.record.extra["exec_path_calls"] == {"dense": 1}

    def test_crossover_knob(self, rng):
        """sparse_crossover=1.0 forces sparse even at full density."""
        conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        x = rng.uniform(0.1, 1, (1, 3, 6, 6))
        ex = ODQConvExecutor(conv, "C1", threshold=0.0, exec_path="auto",
                             sparse_crossover=1.0)
        ex.calibrate(x)
        ex.freeze()
        ex.run(x)
        assert ex.record.extra["exec_path_calls"] == {"sparse": 1}
        assert 0.0 < SPARSE_ROW_CROSSOVER < 1.0  # below pure-FLOP break-even

    def test_validation(self, rng):
        conv = Conv2d(3, 4, 3, rng=rng)
        with pytest.raises(ValueError):
            ODQConvExecutor(conv, "C1", threshold=0.3, exec_path="gpu")
        with pytest.raises(ValueError):
            ODQConvExecutor(conv, "C1", threshold=0.3, sparse_crossover=1.5)
        with pytest.raises(ValueError):
            odq_mixed_conv(
                np.zeros((1, 3, 4, 4)), np.zeros((2, 3, 3, 3)), None, 1, 1,
                0.3, affine_qparams(0.0, 1.0, 4),
                affine_qparams(-1.0, 1.0, 4), exec_path="nope",
            )


class TestMixedConvFunction:
    def test_sparse_equals_dense(self, rng):
        x = rng.uniform(0, 1, (2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3)) * 0.3
        b = rng.normal(size=4)
        qp_a = affine_qparams(float(x.min()), float(x.max()), 4)
        qp_w = odq_weight_qparams(w, 4)
        kwargs = dict(stride=1, padding=1, threshold=0.3, qp_a=qp_a, qp_w=qp_w)
        d = odq_mixed_conv(x, w, b, **kwargs, exec_path="dense")
        s = odq_mixed_conv(x, w, b, **kwargs, exec_path="sparse")
        np.testing.assert_array_equal(d["out"], s["out"])
        np.testing.assert_array_equal(d["mask"].mask, s["mask"].mask)
        assert d["exec_path"] == "dense" and d["full"] is not None
        assert s["exec_path"] == "sparse" and s["full"] is None

    def test_with_cache_returns_cache(self, rng):
        x = rng.uniform(0, 1, (1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3)) * 0.3
        qp_a = affine_qparams(0.0, 1.0, 4)
        qp_w = odq_weight_qparams(w, 4)
        res = odq_mixed_conv(x, w, None, 1, 1, 0.2, qp_a, qp_w,
                             with_cache=True)
        cache, packed = res["cache"], res["packed"]
        assert cache.rows == 1 * 5 * 5
        # The cached columns reproduce the full result exactly.
        acc = cache.cols @ packed.wmat_full
        full = qp_a.scale * qp_w.scale * (acc - qp_a.zero_point * packed.w_sum)
        np.testing.assert_array_equal(cache.to_nchw(full), res["full"])


class TestColumnCache:
    """The shared quantize->pad->im2col primitive."""

    def _cache(self, rng, padding=1, compensate=True):
        x = rng.uniform(0, 1, (2, 3, 6, 6))
        qp_a = affine_qparams(float(x.min()), float(x.max()), 4)
        return x, qp_a, ColumnCache(x, qp_a, 3, 1, padding, 2,
                                    compensate_low_bits=compensate)

    def test_cols_match_reference_im2col(self, rng):
        x, qp_a, cache = self._cache(rng)
        q = pad_nchw(quantize(x, qp_a), 1, value=qp_a.zero_point)
        ref = im2col(q.astype(np.float64), 3, 1, 0)
        # The cache's columns run (kh, kw, c); the reference's (c, kh, kw).
        ref = ref.reshape(-1, 3, 3, 3).transpose(0, 2, 3, 1).reshape(ref.shape)
        np.testing.assert_array_equal(cache.cols, ref)

    def test_e_low_on_unpadded_input(self, rng):
        x, qp_a, cache = self._cache(rng)
        from repro.quant.bitsplit import split_planes
        expected = float(split_planes(quantize(x, qp_a), qp_a, 2).low.mean())
        assert cache.e_low == expected

    def test_no_compensation_skips_e_low(self, rng):
        _, _, cache = self._cache(rng, compensate=False)
        assert cache.e_low == 0.0


class TestProfileIntegration:
    def test_report_renders_path_and_speedup(self, rng):
        from repro.obs.profile import ProfileReport

        conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        x = rng.uniform(0, 1, (2, 3, 8, 8))
        ex = ODQConvExecutor(conv, "C1", threshold=0.5, exec_path="sparse")
        ex.calibrate(x)
        ex.freeze()
        ex.run(x)
        report = ProfileReport.from_spans([], {"C1": ex.record})
        layer = report.layers["C1"]
        assert layer.path_calls == {"sparse": 1}
        assert layer.exec_path_summary == "sparse"
        assert layer.rows_computed <= layer.rows
        rendered = report.render()
        assert "result generation" in rendered
        assert "sparse" in rendered

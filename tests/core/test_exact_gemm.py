"""The accumulator bound behind the GEMM operand dtype.

Every ODQ GEMM multiplies integers, so each partial sum of a length-``K``
reduction is bounded by ``K * a_max * w_max``.  While that bound fits
``2**24`` a float32 sum is exact in any order, and
:func:`~repro.core.colcache.exact_gemm_dtype` picks float32; the narrow
GEMM must then equal (``==``) the float64 one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import gemm
from repro.core.colcache import (
    FLOAT32_EXACT_INT,
    ColumnCache,
    exact_gemm_dtype,
    pack_conv_weights,
)
from repro.core.odq import ODQConvExecutor, odq_weight_qparams
from repro.core.pipeline import QuantizedInferenceEngine
from repro.core.schemes import odq_scheme
from repro.nn.layers import Conv2d
from repro.quant.uniform import affine_qparams, quantize


@st.composite
def gemm_cases(draw):
    return {
        "k": draw(st.integers(1, 6000)),
        "m": draw(st.integers(1, 6)),
        "n": draw(st.integers(1, 6)),
        # INT2/INT4 planes and 8-bit operands, whose bound crosses 2**24.
        "a_max": draw(st.sampled_from([3, 15, 255])),
        "w_max": draw(st.sampled_from([1, 7, 8, 127])),
        "seed": draw(st.integers(0, 2**31 - 1)),
    }


@settings(max_examples=60, deadline=None)
@given(gemm_cases())
def test_narrow_gemm_equals_float64(case):
    rng = np.random.default_rng(case["seed"])
    k, a_max, w_max = case["k"], case["a_max"], case["w_max"]
    a = rng.integers(0, a_max, size=(case["m"], k), endpoint=True)
    w = rng.integers(-w_max, w_max, size=(k, case["n"]), endpoint=True)
    dt = exact_gemm_dtype(k, a_max, w_max)
    assert (dt == np.float32) == (k * a_max * w_max <= FLOAT32_EXACT_INT)
    narrow = gemm.pgemm(a.astype(dt), w.astype(dt))
    wide = gemm.pgemm(a.astype(np.float64), w.astype(np.float64))
    assert narrow.dtype == dt
    np.testing.assert_array_equal(narrow, wide)


@pytest.mark.parametrize("w_sign", ["plus", "minus", "alternating"])
def test_all_max_operands_at_vgg16_k(w_sign):
    """The worst case: every product at its maximum, at the largest K."""
    k = 4608  # VGG-16's 512*3*3
    dt = exact_gemm_dtype(k, 15, 7)
    assert dt == np.float32
    a = np.full((3, k), 15.0)
    w = np.full((k, 2), 7.0)
    if w_sign == "minus":
        w = -w
    elif w_sign == "alternating":
        w[::2] = -7.0
    narrow = gemm.pgemm(a.astype(dt), w.astype(dt))
    wide = gemm.pgemm(a, w)
    np.testing.assert_array_equal(narrow, wide)
    expected = {"plus": k * 105, "minus": -k * 105, "alternating": 0}[w_sign]
    assert np.all(wide == expected)


def test_int4_is_float32_and_8bit_odq_is_float64_at_resnet20_k():
    k = 64 * 3 * 3
    assert exact_gemm_dtype(k, 15, 7) == np.float32
    assert exact_gemm_dtype(k, 255, 127) == np.float64
    assert exact_gemm_dtype(k, None, 7) == np.float64


def _layer(c_in, c_out, total_bits, seed=0):
    rng = np.random.default_rng(seed)
    conv = Conv2d(c_in, c_out, 3, padding=1, rng=rng)
    ex = ODQConvExecutor(conv, "c", threshold=0.1, total_bits=total_bits)
    x = rng.normal(size=(2, c_in, 6, 6))
    ex.calibrate(x)
    ex.freeze()
    return ex, x


@pytest.mark.parametrize("bits,dtype", [(4, np.float32), (8, np.float64)])
def test_executor_packs_in_bound_dtype(bits, dtype):
    ex, x = _layer(64, 8, bits)
    assert ex._packed.dtype == dtype
    assert ex._packed.wmat_full.dtype == dtype
    assert ex._packed.wmat_high.dtype == dtype
    cache = ex._build_cache(x)
    assert cache.q_pad.dtype == dtype
    assert cache.cols.dtype == dtype
    assert cache.cols_high.dtype == dtype
    assert cache.full_rows(np.arange(3)).dtype == dtype
    assert isinstance(cache.e_low, float)


def test_column_cache_rejects_activation_wider_than_bound():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, size=(1, 4, 5, 5))
    wt = rng.normal(size=(2, 4, 3, 3))
    qp_w = odq_weight_qparams(wt, 4)
    packed = pack_conv_weights(quantize(wt, qp_w), qp_w, 2, a_max=15)
    assert packed.dtype == np.float32
    qp4 = affine_qparams(float(x.min()), float(x.max()), 4)
    ColumnCache(x, qp4, 3, 1, 1, 2, dtype=packed.dtype, a_max=packed.a_max)
    qp8 = affine_qparams(float(x.min()), float(x.max()), 8)
    with pytest.raises(ValueError, match="a_max=15"):
        ColumnCache(x, qp8, 3, 1, 1, 2, dtype=packed.dtype, a_max=packed.a_max)


def test_planned_resnet20_inference_counts_planned_gemms(
    trained_resnet, calib_batch
):
    """The plan binds its GEMM shape in the packed dtype, so the narrow
    operands still hit the planned dispatch."""
    model, _ = trained_resnet
    engine = QuantizedInferenceEngine(model, odq_scheme(0.5))
    try:
        engine.calibrate(calib_batch[:16])
        dtypes = {ex._packed.dtype for ex in engine.executors.values()}
        assert dtypes == {np.dtype(np.float32)}
        x = calib_batch[:2]
        engine.use_plan = False
        ref = engine.infer(x)
        engine.use_plan = True
        engine.infer(x)  # compiles
        gemm.reset_stats()
        out = engine.infer(x)
        # One planned predictor GEMM per conv, plus the dense ones.
        assert gemm.stats().planned_calls >= len(engine.executors)
        np.testing.assert_array_equal(out, ref)
    finally:
        engine.restore()

"""Property test: the one-pass NHWC column cache against the NCHW reference.

The reference is the textbook prep, one step at a time: ``quantize`` to
int64, ``pad_nchw`` with the zero point, ``split_planes``, then NCHW
``im2col`` with the filter bank packed in ``(c, kh, kw)`` order.  The
cache fuses all of it into one float64 pass with ``(kh, kw, c)``
columns.  Every GEMM entry is an exact integer, so both must agree with
``==`` whatever the geometry, layout or quantizer.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.colcache import (
    ColumnCache,
    pack_conv_weights,
    weights_from_gemm_layout,
)
from repro.core.odq import odq_weight_qparams
from repro.quant.bitsplit import split_planes
from repro.quant.uniform import affine_qparams, quantize, symmetric_qparams
from repro.utils.im2col import im2col, pad_nchw

LOW_BITS = 2


@st.composite
def conv_cases(draw):
    kernel = draw(st.sampled_from([1, 3, 5]))
    padding = draw(st.sampled_from([0, 1, 2]))
    min_hw = max(1, kernel - 2 * padding)
    return {
        "n": draw(st.integers(1, 3)),
        "c": draw(st.integers(1, 8)),
        "c_out": draw(st.integers(1, 4)),
        "h": draw(st.integers(min_hw, min_hw + 6)),
        "w": draw(st.integers(min_hw, min_hw + 6)),
        "kernel": kernel,
        "stride": draw(st.sampled_from([1, 2])),
        "padding": padding,
        "transposed": draw(st.booleans()),
        "signed": draw(st.booleans()),
        "narrow": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**31 - 1)),
    }


def _reference(x, qp_a, qw, qp_w, kernel, stride, padding):
    """(cols, cols_high, wmat_full, wmat_high, e_low) of the NCHW path."""
    q = quantize(x, qp_a)
    q_pad = pad_nchw(q, padding, value=qp_a.zero_point)
    high = split_planes(q_pad, qp_a, LOW_BITS).high
    cols = im2col(q_pad.astype(np.float64), kernel, stride, 0)
    cols_high = im2col(high.astype(np.float64), kernel, stride, 0)
    c_out = qw.shape[0]
    wmat_full = qw.reshape(c_out, -1).T.astype(np.float64)
    wmat_high = split_planes(qw, qp_w, LOW_BITS).high.reshape(c_out, -1).T
    e_low = float(split_planes(q, qp_a, LOW_BITS).low.mean())
    return cols, cols_high, wmat_full, wmat_high.astype(np.float64), e_low


@settings(max_examples=80, deadline=None)
@given(conv_cases())
def test_nhwc_prep_matches_nchw_reference(case):
    rng = np.random.default_rng(case["seed"])
    n, c, h, w = case["n"], case["c"], case["h"], case["w"]
    k, s, p = case["kernel"], case["stride"], case["padding"]
    x = rng.normal(size=(n, c, h, w)) * rng.uniform(0.1, 3.0)
    if case["transposed"]:
        # An NHWC buffer viewed as NCHW, like a GEMM result after to_nchw.
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if case["signed"]:
        qp_a = symmetric_qparams(float(np.abs(x).max()), 4)
    else:
        qp_a = affine_qparams(float(x.min()), float(x.max()), 4)
    wt = rng.normal(size=(case["c_out"], c, k, k))
    qp_w = odq_weight_qparams(wt, 4)
    qw = quantize(wt, qp_w)

    if case["narrow"]:
        # The serving operands: float32 buffers, bounded by the qparams.
        a_max = max(-qp_a.qmin, qp_a.qmax)
        kw = {"dtype": np.float32, "a_max": a_max}
    else:
        a_max, kw = None, {}
    # A geometry derived for another input shape is not reused.
    other = ColumnCache(np.zeros((1, c, h + 1, w)), qp_a, k, s, p, LOW_BITS)
    cache = ColumnCache(x, qp_a, k, s, p, LOW_BITS, compensate_low_bits=True,
                        geom=other.geom, **kw)
    assert cache.geom is not other.geom
    packed = pack_conv_weights(qw, qp_w, LOW_BITS, a_max=a_max)
    cols, cols_high, wmat_full, wmat_high, e_low = _reference(
        x, qp_a, qw, qp_w, k, s, p)

    np.testing.assert_array_equal(
        cache.cols_high @ packed.wmat_high, cols_high @ wmat_high)
    sel = np.flatnonzero(rng.random(cache.rows) < 0.5)
    gathered = cache.full_rows(sel)
    assert cache._cols is None  # the sparse gather never builds dense cols
    np.testing.assert_array_equal(
        gathered @ packed.wmat_full, cols[sel] @ wmat_full)
    np.testing.assert_array_equal(gathered, cache.cols[sel])
    for high, whole in ((True, cache.cols_high), (False, cache.cols)):
        per_image = [cache.image_cols(i, high) for i in range(n)]
        np.testing.assert_array_equal(np.concatenate(per_image), whole)
    np.testing.assert_array_equal(cache.cols @ packed.wmat_full, cols @ wmat_full)
    assert cache.e_low == e_low
    np.testing.assert_array_equal(
        weights_from_gemm_layout(packed.wmat_full, qw.shape), qw)

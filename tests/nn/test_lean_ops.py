"""``F.linear`` and ``F.max_pool2d`` against their Tensor-op compositions.

Both ops are one taped op with a lean forward (one GEMM; a first-max
scan).  Their outputs and input/weight/bias gradients must be ``==`` to
the compositions they replace, which are kept here as references:
``linear`` as ``transpose -> matmul -> add`` and ``max_pool2d`` as an
argmax gather whose backward scatters through precomputed indices.
"""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.quant.dorefa import fake_quant_weight


def _ref_linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def _ref_max_pool2d(x: Tensor, kernel: int, stride: int) -> Tensor:
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.data.strides
    patches = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    ).reshape(n, c, oh, ow, kernel * kernel)
    arg = patches.argmax(axis=-1)
    out_data = np.take_along_axis(patches, arg[..., None], axis=-1)[..., 0]
    ki, kj = np.divmod(arg, kernel)
    ii = np.arange(oh)[None, None, :, None] * stride + ki
    jj = np.arange(ow)[None, None, None, :] * stride + kj
    nn_idx = np.arange(n)[:, None, None, None]
    cc_idx = np.arange(c)[None, :, None, None]

    def backward(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        np.add.at(gx, (nn_idx, cc_idx, ii, jj), np.asarray(g))
        x._accumulate(gx)

    return Tensor.from_op(out_data, (x,), backward, "max_pool2d")


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("dtype,bias_dtype", [
    (np.float32, np.float32),
    (np.float64, np.float64),
    (np.float32, np.float64),  # the bias widens the output and its gradient
])
@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize("dorefa", [False, True])
def test_linear_matches_the_tensor_op_chain(dtype, bias_dtype, with_bias, dorefa):
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(5, 7)).astype(dtype)
    ws = rng.normal(size=(3, 7)).astype(dtype)
    bs = rng.normal(size=3).astype(bias_dtype)
    g = rng.normal(size=(5, 3))

    def run(op):
        x = Tensor(xs, requires_grad=True)
        w = Tensor(ws.copy(), requires_grad=True)
        b = Tensor(bs.copy(), requires_grad=True) if with_bias else None
        # DoReFa's QuantLinear hands F.linear a non-leaf weight.
        wq = fake_quant_weight(w, 4) if dorefa else w
        out = op(x, wq, b)
        out.backward(g)
        return out.data, x.grad, w.grad, None if b is None else b.grad

    got, ref = run(F.linear), run(_ref_linear)
    assert _same(got[0], ref[0])
    assert _same(got[1], ref[1])
    assert _same(got[2], ref[2])
    if with_bias:
        assert _same(got[3], ref[3])


def test_linear_rejects_non_2d_input():
    with pytest.raises(ValueError):
        F.linear(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((5, 4))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2), (3, 1)])
def test_max_pool2d_matches_the_argmax_gather(dtype, kernel, stride):
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(2, 3, 8, 8))
    xs = (xs * (xs > 0)).astype(dtype)  # ReLU output: -0.0 ties with 0.0
    xs[0, 0, :3, :3] = 0.0
    # Conv outputs reach the pool as NCHW views of NHWC memory.
    xs = np.ascontiguousarray(xs.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    oh = (8 - kernel) // stride + 1
    g = rng.normal(size=(2, 3, oh, oh)).astype(dtype)

    def run(op):
        x = Tensor(xs, requires_grad=True)
        out = op(x, kernel, stride)
        out.backward(g)
        return out.data, x.grad

    (got, got_grad), (ref, ref_grad) = run(F.max_pool2d), run(_ref_max_pool2d)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    itype = np.int32 if dtype == np.float32 else np.int64
    assert np.array_equal(got.view(itype), ref.view(itype))
    assert _same(got_grad, ref_grad)

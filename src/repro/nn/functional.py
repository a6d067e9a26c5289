"""Differentiable neural-network primitives on :class:`~repro.nn.tensor.Tensor`.

Convolution is implemented as im2col + one GEMM, the standard HPC
formulation (and the one the paper's accelerator hardware mirrors with its
Im2col/Pack engine).  Backward passes reuse the cached column matrix, so
each conv costs three GEMMs total per training step.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor
from repro.utils.im2col import col2im, conv_output_size, im2col


def _pgemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The one GEMM entry point, ``a @ b`` (see :mod:`repro.core.gemm`).

    Imported lazily: ``repro.core``'s package init imports
    ``repro.nn.layers`` (which imports this module), so a module-level
    ``from repro.core.gemm import pgemm`` would deadlock the import
    graph when ``repro.nn`` is imported first.  After the first call
    this is one ``sys.modules`` lookup — negligible next to a GEMM.
    """
    from repro.core.gemm import pgemm

    return pgemm(a, b)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution (cross-correlation) over an NCHW input.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filter bank of shape ``(C_out, C_in, K, K)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")
    if kh != kw:
        raise ValueError("only square kernels are supported")
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)

    cols = im2col(x.data, kh, stride, padding)  # (N*OH*OW, C*K*K)
    wmat = weight.data.reshape(c_out, -1).T  # (C*K*K, C_out)
    out_mat = _pgemm(cols, wmat)
    if bias is not None:
        out_mat = out_mat + bias.data.reshape(1, c_out)
    out_data = out_mat.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        gmat = np.asarray(g).transpose(0, 2, 3, 1).reshape(-1, c_out)
        if weight.requires_grad:
            gw = _pgemm(cols.T, gmat).T.reshape(weight.shape)
            weight._accumulate(gw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(gmat.sum(axis=0))
        if x.requires_grad:
            gcols = _pgemm(gmat, wmat.T)
            x._accumulate(col2im(gcols, x.shape, kh, stride, padding))

    return Tensor.from_op(out_data, parents, backward, "conv2d")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape (out, in).

    One taped op whose forward is one GEMM; its backward gives the
    gradients a ``transpose -> matmul -> add`` chain of Tensor ops gives.
    """
    if x.ndim != 2 or weight.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")
    out_mat = _pgemm(x.data, weight.data.T)
    out_data = out_mat if bias is None else out_mat + bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        if bias is not None:
            bias._accumulate(g)
        # A bias of wider dtype widens g; the GEMM's gradient keeps the
        # GEMM's own dtype.
        gmat = np.asarray(g, dtype=out_mat.dtype)
        if x.requires_grad:
            x._accumulate(_pgemm(gmat, weight.data))
        if weight.requires_grad:
            weight._accumulate(_pgemm(x.data.T, gmat).T)

    return Tensor.from_op(out_data, parents, backward, "linear")


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over NCHW input.  Defaults to non-overlapping windows.

    Each output is its window's first maximum in row-major order (the
    element ``argmax`` picks): ties, including ``-0.0`` vs ``0.0``, keep
    the earlier element and the first NaN wins.  The backward scatter
    indices are built only when the backward runs.
    """
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    xd = x.data

    # Visit the window offsets in row-major order and take a candidate
    # only when it beats the running best: strictly greater, or a NaN
    # over a non-NaN.
    hs, ws = stride * (oh - 1) + 1, stride * (ow - 1) + 1
    best = xd[:, :, :hs:stride, :ws:stride].copy()
    for i in range(kernel):
        for j in range(kernel):
            if i or j:
                v = xd[:, :, i:i + hs:stride, j:j + ws:stride]
                np.copyto(best, v, where=~((v <= best) | (best != best)))

    def backward(g: np.ndarray) -> None:
        sn, sc, sh, sw = xd.strides
        patches = np.lib.stride_tricks.as_strided(
            xd,
            shape=(n, c, oh, ow, kernel, kernel),
            strides=(sn, sc, sh * stride, sw * stride, sh, sw),
            writeable=False,
        ).reshape(n, c, oh, ow, kernel * kernel)
        ki, kj = np.divmod(patches.argmax(axis=-1), kernel)
        ii = np.arange(oh)[None, None, :, None] * stride + ki
        jj = np.arange(ow)[None, None, None, :] * stride + kj
        nn_idx = np.arange(n)[:, None, None, None]
        cc_idx = np.arange(c)[None, :, None, None]
        gx = np.zeros_like(xd)
        np.add.at(gx, (nn_idx, cc_idx, ii, jj), np.asarray(g))
        x._accumulate(gx)

    return Tensor.from_op(best, (x,), backward, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling, expressed via autograd primitives where possible."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1

    sn, sc, sh, sw = x.data.strides
    patches = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    out_data = patches.mean(axis=(-1, -2))
    scale = 1.0 / (kernel * kernel)

    def backward(g: np.ndarray) -> None:
        g = np.asarray(g) * scale
        gx = np.zeros_like(x.data)
        for ki in range(kernel):
            for kj in range(kernel):
                gx[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride] += g
        x._accumulate(gx)

    return Tensor.from_op(out_data, (x,), backward, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dims: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


def flatten(x: Tensor) -> Tensor:
    """Flatten all but the batch dimension."""
    return x.reshape(x.shape[0], -1)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax built from autograd primitives."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)  # repro: noqa[NUM402] — sum of exp() is strictly positive


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep) / keep
    return x * Tensor(mask)


__all__ = [
    "conv2d",
    "linear",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "flatten",
    "softmax",
    "log_softmax",
    "dropout",
]

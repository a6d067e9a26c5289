"""Vectorized im2col / col2im transforms.

These are the workhorses behind every convolution in the library — both the
autograd substrate (``repro.nn``) and the quantized inference paths
(``repro.core``).  The paper's accelerator contains a hardware
"Im2col/Pack engine" (Fig. 12/17) that performs exactly this transform
before packing rows into line buffers, so keeping the software and the
simulator on the same layout is deliberate.

All tensors are NCHW.  The implementation uses stride tricks to build the
patch view without copying, then a single ``reshape`` materialises the
column matrix, following the vectorization guidance in the scientific-
python optimization notes (no Python-level loops over pixels).
"""

from __future__ import annotations

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"conv output size must be positive, got {out} "
            f"(size={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def pad_nchw(x: np.ndarray, padding: int, value: float = 0.0) -> np.ndarray:
    """Zero-pad the two spatial dims of an NCHW tensor."""
    if padding == 0:
        return x
    return np.pad(
        x,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
        constant_values=value,
    )


def _patch_view(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Return a (N, C, OH, OW, KH, KW) strided view of padded input ``x``."""
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kernel: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Unfold an NCHW tensor into a column matrix.

    Returns an array of shape ``(N * OH * OW, C * KH * KW)`` where each row
    holds one receptive field, so a convolution becomes a single GEMM with
    the reshaped filter bank.  The row ordering is ``n``-major then
    raster-scan over output pixels, matching :func:`col2im`.
    """
    xp = pad_nchw(x, padding)
    patches = _patch_view(xp, kernel, stride)  # N,C,OH,OW,KH,KW
    n, c, oh, ow, kh, kw = patches.shape
    # -> N,OH,OW,C,KH,KW -> rows
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Fold a column matrix back into an NCHW tensor (adjoint of im2col).

    Overlapping patch contributions are accumulated, which makes this the
    correct gradient of :func:`im2col` rather than its inverse.
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh = (hp - kernel) // stride + 1
    ow = (wp - kernel) // stride + 1
    patches = cols.reshape(n, oh, ow, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)

    xp = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    # Accumulate per kernel offset: kernel*kernel strided adds, each fully
    # vectorized over N, C and all output pixels.
    for ki in range(kernel):
        for kj in range(kernel):
            xp[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride] += (
                patches[:, :, :, :, ki, kj]
            )
    if padding:
        return xp[:, :, padding:-padding, padding:-padding]
    return xp


__all__ = ["conv_output_size", "pad_nchw", "im2col", "col2im"]

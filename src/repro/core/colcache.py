"""Per-call quantized column cache + freeze-time packed GEMM operands.

The paper's accelerator prepares each input tile exactly once: the
Im2col/Pack engine (Fig. 12/17) unfolds and packs it into the line
buffers, and both the predictor and the executor PE clusters read from
there.  :class:`ColumnCache` is the software twin (one prep per layer
call, shared by the predictor and result generation) and
:class:`PackedConvWeights` its freeze-time counterpart (the filter bank
reshaped into GEMM operands once).

One NHWC pass
-------------
The cache makes a single pass over the input.  It evaluates
:func:`repro.quant.uniform.quantize`'s ops (``round(x / scale) + zp``,
clipped) on an NHWC view of ``x``, without the int64 cast, and copies
the result into the interior of a preallocated ``(N, H+2p, W+2p, C)``
buffer whose border holds the zero point (the integer that dequantizes
to real 0).
Padding before the plane split means the predictor sees the same border
values as the executor.  The high plane is ``trunc(q * 2**-n)``.  That
equals :func:`repro.quant.bitsplit.split_planes` for unsigned
activations (``q >> n``) and for the signed sign-magnitude split
(``sign(q) * (|q| >> n)``).  ``E[q_l]`` is measured on the unpadded
interior as ``(sum(q) - 2**n * sum(q_h)) / count``.

Column order ``(kh, kw, c)``
----------------------------
The column matrices are unfolded from an ``(N, OH, OW, K, K, C)``
strided view of that buffer, so each row is one receptive field with
channels innermost.  For a given ``kh`` the ``K * C`` values are
adjacent in memory, so the unfold copies contiguous runs instead of
``K``-wide NCHW strips.  :func:`pack_conv_weights` packs the filter
bank rows in the same ``(kh, kw, c)`` order.  Rows stay ``n``-major in
raster order over output pixels, so a ``(rows, C_out)`` GEMM result
folds back with :meth:`ColumnCache.to_nchw`.

Exact narrow operands
---------------------
Every buffer entry is an integer of a few bits, and every GEMM entry is
a sum of ``K = C*k*k`` products of such integers, so every partial sum
of the reduction, in any order, is bounded by ``K * a_max * w_max``.
A float sum of integers stays exact in any order while that bound fits
the mantissa: ``2**24`` for float32, ``2**53`` for float64.
:func:`exact_gemm_dtype` picks the narrowest dtype the bound allows, once,
at pack time; :func:`pack_conv_weights` packs the filter bank in it and
:class:`ColumnCache` builds its buffers in it.  INT4 ODQ (``15 * 7 * K``,
at most ~4.8e5 for VGG-16's ``K = 4608``) runs float32; 8-bit ODQ
(``255 * 127 * 576`` on resnet20) stays float64.  Reordering the
reduction axis, or BLAS blocking it differently, therefore cannot change
a single bit of the result (same argument as
:func:`repro.core.base.int_conv2d`), and sparse and dense result
generation, this layout and the NCHW reference agree with ``==``.  The
quantize arithmetic, every reduction over a narrow buffer and the
dequantizing epilogue stay float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.quant.bitsplit import split_planes
from repro.quant.uniform import QParams
from repro.utils.im2col import conv_output_size


#: float32 holds every integer of magnitude up to this exactly.
FLOAT32_EXACT_INT = 2**24


def exact_gemm_dtype(k: int, a_max: int | None, w_max: int) -> np.dtype:
    """The narrowest float dtype in which an integer GEMM stays exact.

    ``k`` is the reduction length and ``a_max`` / ``w_max`` bound the
    operand magnitudes, so ``k * a_max * w_max`` bounds every partial
    sum: float32 when that fits ``2**24``, float64 otherwise (and when
    ``a_max`` is ``None``, an unbounded activation).
    """
    if a_max is not None and k * a_max * w_max <= FLOAT32_EXACT_INT:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _gemm_layout(t: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``(C_out, C_in, K, K)`` -> ``(K*K*C_in, C_out)`` in ``dtype``, rows
    in ``(kh, kw, c)`` order (the :class:`ColumnCache` column order)."""
    return np.ascontiguousarray(
        t.transpose(2, 3, 1, 0).reshape(-1, t.shape[0]), dtype=dtype
    )


def weights_from_gemm_layout(
    mat: np.ndarray, shape: tuple[int, int, int, int]
) -> np.ndarray:
    """Inverse of the packing: ``(K*K*C_in, C_out)`` -> ``shape``,
    the filter bank's ``(C_out, C_in, K, K)``."""
    c_out, c_in, kh, kw = shape
    return mat.T.reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)


@dataclass(frozen=True)
class PackedConvWeights:
    """Freeze-time GEMM operands of one quantized filter bank.

    ``wmat_full`` and ``wmat_high`` are ``(K*K*C_in, C_out)`` matrices
    of exact integers in :attr:`dtype`, with rows in ``(kh, kw, c)``
    order, ready to be multiplied against :class:`ColumnCache` column
    matrices built in the same dtype without any per-call reshape/astype
    work.

    An immutable value, like the accelerator's filter bank, which is
    packed once: its arrays are flagged read-only when it is built, and
    ``copy.deepcopy`` returns the same object, so a cloned engine shares
    its operands instead of copying them.  The integer weights are not
    kept beside it; :func:`weights_from_gemm_layout` recovers them from
    ``wmat_full``.
    """

    wmat_full: np.ndarray   #: full INT-q weights, GEMM layout
    wmat_high: np.ndarray   #: W_HBS plane (predictor operand)
    w_sum: np.ndarray       #: per-channel sum(qw), shape (1, C_out) float64
    low_bits: int
    c_out: int
    dtype: np.dtype         #: GEMM operand dtype, from exact_gemm_dtype
    a_max: int | None       #: activation magnitude the dtype was chosen for

    def __post_init__(self) -> None:
        for arr in (self.wmat_full, self.wmat_high, self.w_sum):
            arr.flags.writeable = False

    def __deepcopy__(self, memo: dict) -> "PackedConvWeights":
        return self

    @property
    def high_shift(self) -> int:
        """Left shift of the predictor partial product: ``2 * low_bits``."""
        return 2 * self.low_bits


def pack_conv_weights(
    qw: np.ndarray, qp_w: QParams, low_bits: int, a_max: int | None = None
) -> PackedConvWeights:
    """Pack quantized weights ``qw`` (C_out, C_in, K, K) for the GEMM paths.

    ``a_max`` bounds the activation integers the operands will meet (the
    activation qmax); with ``K`` and ``max|qw|`` it picks the operand
    dtype (:func:`exact_gemm_dtype`).  Without it the operands are
    float64.
    """
    c_out = qw.shape[0]
    k = int(np.prod(qw.shape[1:]))
    w_max = int(np.abs(qw).max()) if qw.size else 0
    dtype = exact_gemm_dtype(k, a_max, w_max)
    return PackedConvWeights(
        wmat_full=_gemm_layout(qw, dtype),
        wmat_high=_gemm_layout(split_planes(qw, qp_w, low_bits).high, dtype),
        w_sum=qw.sum(axis=(1, 2, 3)).reshape(1, -1).astype(np.float64),
        low_bits=low_bits,
        c_out=c_out,
        dtype=dtype,
        a_max=a_max,
    )


class ConvGeometry:
    """The shape arithmetic of one conv layer on one ``(C, H, W)`` input.

    Everything :class:`ColumnCache` derives from the input shape except
    the batch size: output size, padded buffer shape, the interior slice
    and the receptive-field anchors :meth:`ColumnCache.full_rows`
    gathers by.  A layer sees one input shape per model, so its executor
    computes this once and passes it to every call's cache.  Immutable,
    so engine clones share it.
    """

    __slots__ = ("in_chw", "oh", "ow", "step", "pad_hwc", "interior",
                 "border", "width", "image_pixels", "anchors", "last_anchor")

    def __init__(self, in_chw: tuple, kernel: int, stride: int, padding: int) -> None:
        c, h, w = in_chw
        self.in_chw = tuple(in_chw)
        self.oh = oh = conv_output_size(h, kernel, stride, padding)
        self.ow = ow = conv_output_size(w, kernel, stride, padding)
        self.step = oh * ow
        p = padding
        hp, wp = h + 2 * p, w + 2 * p
        self.pad_hwc = (hp, wp, c)
        self.interior = (slice(None), slice(p, p + h), slice(p, p + w))
        self.border = (hp * wp - h * w) * c  #: border cells per image
        self.width = kernel * kernel * c
        self.image_pixels = hp * wp
        #: Top-left padded pixel of each output position of one image,
        #: in raster order.
        anchors = (
            np.arange(oh)[:, None] * (stride * wp) + np.arange(ow) * stride
        ).reshape(-1)
        anchors.flags.writeable = False
        self.anchors = anchors
        self.last_anchor = int(anchors[-1])

    def __deepcopy__(self, memo: dict) -> "ConvGeometry":
        return self


class ColumnCache:
    """One layer call's quantize/pad/unfold work, done exactly once.

    Parameters mirror the executing conv layer; ``compensate_low_bits``
    controls whether the expected low-plane activation value ``E[q_l]``
    is measured (on the *unpadded* quantized input).

    ``dtype`` is the GEMM operand dtype of the paired
    :class:`PackedConvWeights` and ``a_max`` the activation magnitude it
    was chosen for; a ``qp_a`` whose integer range exceeds ``a_max``
    raises ``ValueError``.  ``geom`` is the layer's :class:`ConvGeometry`
    for ``x``'s ``(C, H, W)``; without one (or with one of another shape)
    the cache derives its own.

    Construction is the one NHWC pass of the module docstring: it fills
    :attr:`q_pad`, the zero-point-padded ``(N, H+2p, W+2p, C)`` buffer in
    ``dtype``, and (when compensating) the high plane and ``e_low``.  The
    column matrices, all in ``(kh, kw, c)`` column order, materialise on
    first access:

    ``cols_high``         predictor columns of the whole batch;
    ``cols``              dense INT-q columns of the whole batch;
    ``image_cols(i, h)``  the ``OH*OW`` rows of image ``i`` alone, of
                          ``cols_high`` when ``h`` else of ``cols``,
                          unfolded straight from the buffer unless that
                          matrix was already built;
    ``full_rows(idx)``    the rows ``idx`` of ``cols``, gathered straight
                          from the buffer unless ``cols`` was already
                          built.  This is what makes the sparse executor
                          cheaper than the dense one at low sensitive-row
                          density.

    The inference kernel (:func:`repro.core.odq.odq_conv`) reads only
    ``image_cols`` and ``full_rows``, so at most one image's columns are
    alive at a time, as in the accelerator's line buffers, which are
    filled one tile at a time.  QAT's forward builds :attr:`cols` first,
    so ``image_cols`` slices it and the STE backward reuses it.
    """

    def __init__(
        self,
        x: np.ndarray,
        qp_a: QParams,
        kernel: int,
        stride: int,
        padding: int,
        low_bits: int,
        compensate_low_bits: bool = True,
        *,
        dtype: np.dtype | type = np.float64,
        a_max: int | None = None,
        geom: ConvGeometry | None = None,
    ) -> None:
        qmin, qmax = qp_a.qmin, qp_a.qmax
        if a_max is not None and max(-qmin, qmax) > a_max:
            raise ValueError(
                f"activation range [{qmin}, {qmax}] exceeds the "
                f"a_max={a_max} the GEMM dtype was chosen for"
            )
        if geom is None or geom.in_chw != x.shape[1:]:
            geom = ConvGeometry(x.shape[1:], kernel, stride, padding)
        self.qp_a = qp_a
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.low_bits = low_bits
        self.geom = geom

        n = x.shape[0]
        self.n = n
        self.oh = geom.oh
        self.ow = geom.ow
        self.rows = n * geom.step

        # quantize()'s ops (round is rint) on an NHWC temporary.
        zp = float(qp_a.zero_point)
        t = np.divide(x.transpose(0, 2, 3, 1), qp_a.scale, dtype=np.float64)
        np.rint(t, out=t)
        t += zp
        np.minimum(t, float(qmax), out=t)
        np.maximum(t, float(qmin), out=t)
        q_pad = np.empty((n, *geom.pad_hwc), dtype=dtype)
        if padding:
            q_pad.fill(zp)
        q_pad[geom.interior] = t
        self.q_pad = q_pad

        self._q_high_pad: np.ndarray | None = None
        self.e_low = 0.0
        if compensate_low_bits and t.size:
            # sum(q_l) = sum(q) - 2**n * sum(q_h) over the interior.  Each
            # is a sum of small integers, exact in float64, and in the
            # buffer's float32 too while the total stays within 2**24 (the
            # same bound as exact_gemm_dtype).  The interior's high-plane
            # sum is the contiguous whole-buffer sum less the border's,
            # whose cells all hold trunc(zp * 2**-n).
            q_high = self.q_high_pad
            h_max = max(-qmin, qmax) >> low_bits
            wide = q_high.dtype != np.float64 and q_high.size * h_max > FLOAT32_EXACT_INT
            high_sum = float(np.add.reduce(q_high, None, np.float64 if wide else None))
            if padding:
                high_sum -= n * geom.border * math.trunc(zp * 2.0 ** -low_bits)
            low_sum = np.add.reduce(t, None) - high_sum * float(1 << low_bits)
            self.e_low = float(low_sum) / t.size

        self._cols: np.ndarray | None = None
        self._cols_high: np.ndarray | None = None

    @property
    def q_high_pad(self) -> np.ndarray:
        """High (predictor) bit plane of :attr:`q_pad`, same layout."""
        if self._q_high_pad is None:
            q_high = self.q_pad * 2.0 ** -self.low_bits
            np.trunc(q_high, out=q_high)
            self._q_high_pad = q_high
        return self._q_high_pad

    def _patches(self, buf: np.ndarray, image: int | None = None) -> np.ndarray:
        """``(N, OH, OW, K, K, C)`` read-only strided view of ``buf``, or
        image ``image``'s ``(OH, OW, K, K, C)`` part of it.

        Built with the ``ndarray`` constructor over ``buf``'s memory
        (``buf`` is a C-contiguous buffer this cache allocated), which
        skips ``as_strided``'s Python-level array-interface round trip.
        """
        sn, sh, sw, sc = buf.strides
        k, s = self.kernel, self.stride
        shape = (self.oh, self.ow, k, k, buf.shape[3])
        strides = (sh * s, sw * s, sh, sw, sc)
        if image is None:
            view = np.ndarray((self.n, *shape), buf.dtype, buf, strides=(sn, *strides))
        else:
            view = np.ndarray(shape, buf.dtype, buf, image * sn, strides)
        view.flags.writeable = False
        return view

    # -- dense column matrices (lazy) ---------------------------------------

    @property
    def cols(self) -> np.ndarray:
        """Dense columns of the full quantized input."""
        if self._cols is None:
            self._cols = self._patches(self.q_pad).reshape(self.rows, -1)
        return self._cols

    @property
    def cols_high(self) -> np.ndarray:
        """Dense columns of the high (predictor) plane."""
        if self._cols_high is None:
            self._cols_high = self._patches(self.q_high_pad).reshape(self.rows, -1)
        return self._cols_high

    def image_cols(self, i: int, high: bool = False) -> np.ndarray:
        """Columns of image ``i`` alone, ``(OH*OW, K*K*C)``: rows
        ``i*OH*OW`` to ``(i+1)*OH*OW`` of :attr:`cols_high` when ``high``,
        else of :attr:`cols`.  Sliced from that matrix when it was already
        built, otherwise unfolded straight from the buffer."""
        step = self.oh * self.ow
        built = self._cols_high if high else self._cols
        if built is not None:
            return built[i * step : (i + 1) * step]
        buf = self.q_high_pad if high else self.q_pad
        return self._patches(buf, i).reshape(step, -1)

    # -- sparse row gathering -----------------------------------------------

    def full_rows(self, rows: np.ndarray) -> np.ndarray:
        """Full-quantized columns for selected rows only.

        Equals ``self.cols[rows]`` bit-for-bit; when the dense matrix was
        never built, only the ``len(rows)`` receptive fields are gathered.
        This is the sparse executor's hot-path operand: one gather + one
        GEMM against ``wmat_full`` reproduces the dense accumulate at the
        selected rows exactly.
        """
        if self._cols is not None:
            return self._cols[rows]
        rows = np.asarray(rows, dtype=np.intp)
        g = self.geom
        if self.n == 1:
            anchors = g.anchors[rows]
        else:
            image, pos = np.divmod(rows, g.step)
            anchors = g.anchors[pos]
            anchors += image * g.image_pixels
        return self._fields(self.q_pad)[anchors].reshape(rows.size, g.width)

    def _fields(self, buf: np.ndarray) -> np.ndarray:
        """``(anchors, K, K*C)`` read-only view of ``buf``: entry ``a`` is
        the receptive field whose top-left pixel is pixel ``a`` of the
        flattened ``(N, H+2p, W+2p)`` grid, so one index array gathers
        whole receptive fields (``(kw, c)`` runs are contiguous)."""
        g = self.geom
        sw, sc = buf.strides[2:]
        k = self.kernel
        view = np.ndarray(
            ((self.n - 1) * g.image_pixels + g.last_anchor + 1, k, k * buf.shape[3]),
            buf.dtype, buf, strides=(sw, buf.strides[1], sc),
        )
        view.flags.writeable = False
        return view

    # -- layout helpers ------------------------------------------------------

    def to_nchw(self, mat2d: np.ndarray) -> np.ndarray:
        """Reshape a ``(rows, C_out)`` GEMM result into NCHW."""
        return (
            mat2d.reshape(self.n, self.oh, self.ow, -1).transpose(0, 3, 1, 2)
        )


__all__ = [
    "exact_gemm_dtype",
    "FLOAT32_EXACT_INT",
    "PackedConvWeights",
    "pack_conv_weights",
    "weights_from_gemm_layout",
    "ColumnCache",
    "ConvGeometry",
]

"""Uniform affine/symmetric quantizers.

Everything in the ODQ/DRQ cores operates on uniformly-quantized integers:

* weights  -> *symmetric signed* quantization (zero-point 0), because the
  Eq.-3 bit-plane algebra needs weights representable as
  ``scale * q`` with ``q`` a signed integer;
* activations -> *affine unsigned* quantization, matching DoReFa's
  clipped-[0,1] activations (post-ReLU feature maps are non-negative).

A quantized tensor is represented as ``(q, QParams)`` with the dequantized
value ``scale * (q - zero_point)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.bitops import int_range


@dataclass(frozen=True)
class QParams:
    """Quantization parameters for one tensor.

    Attributes
    ----------
    scale:
        Positive step size between adjacent integer levels.
    zero_point:
        Integer subtracted before scaling; 0 for symmetric quantization.
    bits:
        Total integer width.
    signed:
        Whether the integer grid is two's-complement signed.
    """

    scale: float
    zero_point: int
    bits: int
    signed: bool

    def __post_init__(self):
        if self.scale <= 0 or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive/finite, got {self.scale}")
        lo, hi = int_range(self.bits, self.signed)
        if not lo <= self.zero_point <= hi:
            raise ValueError("zero_point outside representable range")

    @property
    def qmin(self) -> int:
        return int_range(self.bits, self.signed)[0]

    @property
    def qmax(self) -> int:
        return int_range(self.bits, self.signed)[1]


def symmetric_qparams(max_abs: float, bits: int) -> QParams:
    """Symmetric signed quantizer covering ``[-max_abs, max_abs]``."""
    max_abs = float(max_abs)
    if max_abs <= 0 or not np.isfinite(max_abs):
        max_abs = 1e-8
    qmax = int_range(bits, signed=True)[1]
    return QParams(scale=max_abs / qmax, zero_point=0, bits=bits, signed=True)


def affine_qparams(lo: float, hi: float, bits: int) -> QParams:
    """Unsigned affine quantizer covering ``[lo, hi]`` (lo <= 0 <= hi forced).

    The range is stretched to include 0 so ReLU outputs quantize exactly,
    the standard practice for activation quantization.
    """
    lo, hi = float(min(lo, 0.0)), float(max(hi, 0.0))
    if hi - lo <= 0 or not math.isfinite(hi - lo):
        hi = lo + 1e-8
    levels = int_range(bits, signed=False)[1]
    scale = (hi - lo) / levels
    zero_point = min(max(int(round(-lo / scale)), 0), levels)
    return QParams(scale=scale, zero_point=zero_point, bits=bits, signed=False)


def quantize(x: np.ndarray, qp: QParams) -> np.ndarray:
    """Quantize a float array to the integer grid of ``qp`` (with clamping)."""
    q = np.round(np.asarray(x, dtype=np.float64) / qp.scale) + qp.zero_point
    return np.clip(q, qp.qmin, qp.qmax).astype(np.int64)


def dequantize(q: np.ndarray, qp: QParams) -> np.ndarray:
    """Map integers back to the real line: ``scale * (q - zero_point)``."""
    return (np.asarray(q, dtype=np.float64) - qp.zero_point) * qp.scale


def fake_quantize(x: np.ndarray, qp: QParams) -> np.ndarray:
    """Quantize-then-dequantize (the value a quantized pipeline would see)."""
    return dequantize(quantize(x, qp), qp)


def quantization_error_bound(qp: QParams) -> float:
    """Worst-case rounding error for in-range values: half a step."""
    return 0.5 * qp.scale


__all__ = [
    "QParams",
    "symmetric_qparams",
    "affine_qparams",
    "quantize",
    "dequantize",
    "fake_quantize",
    "quantization_error_bound",
]

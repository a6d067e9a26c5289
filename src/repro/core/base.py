"""Shared infrastructure for quantized convolution executors.

A *conv executor* replaces one ``Conv2d`` during quantized inference.  Its
life cycle is:

1. ``calibrate(x)`` — observe the layer's input distribution (FP pass);
2. ``freeze()`` — turn observations into quantization parameters;
3. ``run(x)`` — quantized inference, returning the output feature map and
   updating the layer's :class:`LayerRecord` (MAC counts by precision
   class, sensitivity masks, …).

The records are both the evaluation artefact (Figs 2-5, 9, 10, 18, 22) and
the workload description handed to the accelerator simulator (Figs 11,
19-21) — mirroring the paper's mask-dump methodology.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.gemm import pgemm
from repro.core.masks import SensitivityMask
from repro.nn.layers import Conv2d
from repro.utils.im2col import conv_output_size, im2col, pad_nchw


@dataclass(frozen=True)
class ConvLayerInfo:
    """Static shape description of one convolution layer."""

    name: str
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int
    padding: int

    @property
    def macs_per_output(self) -> int:
        """MACs needed for one output feature: K*K*C_in."""
        return self.kernel_size * self.kernel_size * self.in_channels

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        return (
            conv_output_size(h, self.kernel_size, self.stride, self.padding),
            conv_output_size(w, self.kernel_size, self.stride, self.padding),
        )

    @classmethod
    def from_conv(cls, conv: Conv2d, name: str) -> "ConvLayerInfo":
        return cls(
            name=name,
            in_channels=conv.in_channels,
            out_channels=conv.out_channels,
            kernel_size=conv.kernel_size,
            stride=conv.stride,
            padding=conv.padding,
        )


#: Executor phases timed on every layer call, in pipeline order; a
#: phase's index addresses :attr:`LayerRecord.phase_ns` and
#: :attr:`LayerRecord.phase_calls`.
PHASES = ("quantize", "predict_partial", "mask", "full_result")
QUANTIZE, PREDICT_PARTIAL, MASK, FULL_RESULT = range(len(PHASES))


@dataclass
class LayerRecord:
    """Accumulated inference statistics for one conv layer: the census.

    ``macs`` keys are precision classes interpreted by the accelerator
    simulator: ``int16``, ``int8``, ``int4``, ``drq_hi``, ``drq_lo``,
    ``pred_int2`` (ODQ predictor pass), ``exec_int4`` (ODQ executor pass).

    ODQ calls also count their result-generation dispatch: calls per
    path (``dense``/``sparse``), output rows seen and rows the chosen
    path computed, and the full-result GEMM FLOPs spent against those
    the dense path would spend.  DRQ counts the input activations it
    saw and those it ran at high precision.  ``phase_ns`` and
    ``phase_calls`` hold wall time and call counts per :data:`PHASES`
    entry (ODQ times all four, static quantization ``quantize`` and
    ``full_result``).  ``extra`` holds opt-in captures only:
    ``last_input``, ``last_input_mask`` and ``partial_abs_samples``.
    """

    info: ConvLayerInfo
    images: int = 0
    outputs_total: int = 0
    sensitive_total: int = 0
    macs: Counter = field(default_factory=Counter)
    per_channel_sensitive: np.ndarray | None = None
    last_mask: SensitivityMask | None = None
    out_h: int = 0
    out_w: int = 0
    path_calls: Counter = field(default_factory=Counter)
    rows_total: int = 0
    rows_computed: int = 0
    flops_full: int = 0
    flops_full_dense: int = 0
    input_total: int = 0
    input_sensitive_total: int = 0
    phase_ns: list = field(default_factory=lambda: [0] * len(PHASES))
    phase_calls: list = field(default_factory=lambda: [0] * len(PHASES))
    extra: dict = field(default_factory=dict)

    @property
    def sensitive_fraction(self) -> float:
        return self.sensitive_total / self.outputs_total if self.outputs_total else 0.0

    @property
    def insensitive_fraction(self) -> float:
        return 1.0 - self.sensitive_fraction

    def add_counts(self, counts: np.ndarray, sensitive: int) -> None:
        """Count one call's per-channel sensitive outputs (``sensitive``
        is their sum) without keeping its mask."""
        self.sensitive_total += sensitive
        if self.per_channel_sensitive is None:
            self.per_channel_sensitive = counts
        else:
            self.per_channel_sensitive = self.per_channel_sensitive + counts

    def add_outputs(self, n: int, out_h: int, out_w: int) -> None:
        """Count one call on ``n`` images with ``out_h x out_w`` outputs."""
        self.out_h, self.out_w = out_h, out_w
        self.images += n
        self.outputs_total += n * out_h * out_w * self.info.out_channels

    def add_phase(self, phase: int, ns: int) -> None:
        """Count one call of ``phase`` that took ``ns`` nanoseconds."""
        self.phase_ns[phase] += ns
        self.phase_calls[phase] += 1

    def add_phases(self, ns: tuple) -> None:
        """Count one call of each of the first ``len(ns)`` phases."""
        phase_ns, phase_calls = self.phase_ns, self.phase_calls
        for phase, t in enumerate(ns):
            phase_ns[phase] += t
            phase_calls[phase] += 1


class ConvExecutor:
    """Base class; subclasses implement one quantization scheme's conv."""

    def __init__(self, conv: Conv2d, name: str) -> None:
        self.conv = conv
        self.info = ConvLayerInfo.from_conv(conv, name)
        self.record = LayerRecord(info=self.info)
        self.frozen = False

    # -- life cycle --------------------------------------------------------

    @property
    def reads_calibration(self) -> bool:
        """True when :meth:`calibrate` observes its input (observers,
        ranges, output statistics).  An engine whose executors all say
        False freezes without running a calibration forward pass."""
        return False

    def calibrate(self, x: np.ndarray) -> np.ndarray:
        """Observe input statistics; returns the FP32 output by default."""
        return self.reference_forward(x)

    def freeze(self) -> None:
        """Finalize quantization parameters after calibration."""
        self.frozen = True

    def run(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------

    def reference_forward(self, x: np.ndarray) -> np.ndarray:
        """Full-precision convolution (the accuracy reference)."""
        return float_conv2d(
            x, self.conv.weight.data,
            None if self.conv.bias is None else self.conv.bias.data,
            self.conv.stride, self.conv.padding,
        )

    def _note_shapes(self, x: np.ndarray) -> tuple[int, int]:
        oh, ow = self.info.output_hw(x.shape[2], x.shape[3])
        self.record.add_outputs(x.shape[0], oh, ow)
        return oh, ow


def float_conv2d(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray | None,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Plain float convolution via im2col + GEMM (no autograd)."""
    n = x.shape[0]
    c_out, _, k, _ = w.shape
    oh = conv_output_size(x.shape[2], k, stride, padding)
    ow = conv_output_size(x.shape[3], k, stride, padding)
    cols = im2col(x, k, stride, padding)
    out = pgemm(cols, w.reshape(c_out, -1).T)
    if b is not None:
        out = out + b.reshape(1, -1)
    return out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)


def int_conv2d(
    q: np.ndarray,
    qw: np.ndarray,
    stride: int,
    padding: int,
    pad_value: int = 0,
) -> np.ndarray:
    """Exact integer convolution.

    Performed in float64 GEMM for BLAS speed; exact because every partial
    product of two sub-16-bit integers accumulated over a receptive field
    stays far below 2**53 (checked in tests/core/test_base.py).

    ``pad_value`` is the integer written into padded positions.  For
    affine-quantized activations this must be the *zero point* — the
    integer that dequantizes to real 0 — otherwise padding injects a
    ``-zp * scale`` bias into every border output.
    """
    n = q.shape[0]
    c_out, _, k, _ = qw.shape
    oh = conv_output_size(q.shape[2], k, stride, padding)
    ow = conv_output_size(q.shape[3], k, stride, padding)
    if padding and pad_value != 0:
        q = pad_nchw(q.astype(np.float64), padding, value=float(pad_value))
        padding = 0
    cols = im2col(q.astype(np.float64), k, stride, padding)
    out = pgemm(cols, qw.reshape(c_out, -1).T.astype(np.float64))
    result = np.rint(out).astype(np.int64)
    return result.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)


__all__ = [
    "PHASES",
    "ConvLayerInfo",
    "LayerRecord",
    "ConvExecutor",
    "float_conv2d",
    "int_conv2d",
]

"""Static uniform quantization executors (the INT16 / INT8 baselines).

These reproduce the paper's DoReFa-Net static baselines of Table 2 /
Figures 18-21: every weight and activation of a layer is quantized to a
fixed width, and every MAC runs at that width.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

from repro.core.base import FULL_RESULT, QUANTIZE, ConvExecutor, int_conv2d
from repro.nn.layers import Conv2d
from repro.obs import trace
from repro.quant.observer import MinMaxObserver, Observer
from repro.quant.uniform import QParams, quantize, symmetric_qparams


class FP32ConvExecutor(ConvExecutor):
    """Identity scheme: full-precision reference (accuracy upper bound)."""

    def run(self, x: np.ndarray) -> np.ndarray:
        self._note_shapes(x)
        self.record.macs["fp32"] += x.shape[0] * self.record.out_h * self.record.out_w \
            * self.info.out_channels * self.info.macs_per_output
        return self.reference_forward(x)


class StaticQuantConvExecutor(ConvExecutor):
    """Uniform static quantization at ``bits`` for weights and activations.

    Weights use symmetric signed quantization, activations affine unsigned
    (zero-point corrected in the integer domain so the computation matches
    an actual integer accelerator datapath, not just fake-quant).
    """

    reads_calibration = True

    def __init__(
        self,
        conv: Conv2d,
        name: str,
        bits: int,
        observer: Observer | None = None,
        mac_key: str | None = None,
    ) -> None:
        super().__init__(conv, name)
        if bits < 2:
            raise ValueError("static quantization needs >= 2 bits")
        self.bits = bits
        self.observer = observer or MinMaxObserver()
        self.mac_key = mac_key or f"int{bits}"
        self.qp_a: QParams | None = None
        self.qp_w: QParams | None = None
        self._qw: np.ndarray | None = None
        self._w_sum: np.ndarray | None = None

    def calibrate(self, x: np.ndarray) -> np.ndarray:
        self.observer.observe(x)
        return self.reference_forward(x)

    def freeze(self) -> None:
        w = self.conv.weight.data
        self.qp_w = symmetric_qparams(float(np.max(np.abs(w))), self.bits)
        self.qp_a = self.observer.qparams(self.bits, signed=False)
        self._qw = quantize(w, self.qp_w)
        # Per-output-channel weight sum for the zero-point correction term:
        # conv(x) = s_a*s_w*(conv(q, qw) - zp * sum(qw)).
        self._w_sum = self._qw.sum(axis=(1, 2, 3)).reshape(1, -1, 1, 1)
        super().freeze()

    def run(self, x: np.ndarray) -> np.ndarray:
        if not self.frozen:
            raise RuntimeError(f"executor {self.info.name} not frozen; calibrate first")
        self._note_shapes(x)
        with trace.span("static.run", layer=self.info.name, bits=self.bits) as sp:
            t0 = perf_counter_ns()
            q = quantize(x, self.qp_a)
            t1 = perf_counter_ns()
            acc = int_conv2d(q, self._qw, self.conv.stride, self.conv.padding,
                             pad_value=self.qp_a.zero_point)
            out = self.qp_a.scale * self.qp_w.scale * (acc - self.qp_a.zero_point * self._w_sum)
            if self.conv.bias is not None:
                out = out + self.conv.bias.data.reshape(1, -1, 1, 1)
            t2 = perf_counter_ns()
            rec = self.record
            rec.macs[self.mac_key] += x.shape[0] * rec.out_h \
                * rec.out_w * self.info.out_channels * self.info.macs_per_output
            rec.add_phase(QUANTIZE, t1 - t0)
            rec.add_phase(FULL_RESULT, t2 - t1)
            sp.set(quantize_ns=t1 - t0, full_result_ns=t2 - t1)
        return out


__all__ = ["FP32ConvExecutor", "StaticQuantConvExecutor"]

"""DRQ baseline: input-directed region-based dynamic quantization.

Re-implementation of the comparison scheme (Song et al., ISCA 2020) as the
ODQ paper describes it (Sections 1-2): the input feature map of each conv
layer is partitioned into regions; a region whose mean magnitude exceeds a
threshold is *sensitive* and computed with high-precision inputs and
weights, otherwise with low-precision ones.  The paper's motivation study
(Figs 2-5) quantifies this scheme's two failure modes, which
``repro.core.stats`` reproduces on top of this executor.

The precision pairs evaluated in the paper are INT8/INT4 ("DRQ 8-4") and
INT4/INT2 ("DRQ 4-2").

DRQ learns its input threshold during training; offline we calibrate it
per layer so that a configurable fraction of input regions is sensitive
(default 50%, the regime DRQ's own evaluation reports), which preserves
the scheme's behaviour without its training loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import ConvExecutor, float_conv2d
from repro.core.masks import SensitivityMask
from repro.nn.layers import Conv2d
from repro.quant.observer import MinMaxObserver, Observer
from repro.quant.uniform import QParams, fake_quantize, symmetric_qparams
from repro.utils.im2col import im2col


def region_mean_magnitude(x: np.ndarray, region: int) -> np.ndarray:
    """Per-region mean |x|: (N, C, H, W) -> (N, 1, ceil(H/r), ceil(W/r)).

    Regions are non-overlapping ``region x region`` spatial tiles averaged
    over all channels (DRQ compares "the sum of input features in a
    region" against its threshold).  Edge tiles average over the valid
    remainder.
    """
    n, c, h, w = x.shape
    mag = np.abs(x).mean(axis=1, keepdims=True)
    rh = -(-h // region)
    rw = -(-w // region)
    pad_h, pad_w = rh * region - h, rw * region - w
    if pad_h or pad_w:
        mag = np.pad(mag, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)), mode="edge")
    return mag.reshape(n, 1, rh, region, rw, region).mean(axis=(3, 5))


def upsample_mask(region_mask: np.ndarray, region: int, h: int, w: int) -> np.ndarray:
    """Expand a per-region mask back to per-pixel resolution (H, W)."""
    up = np.repeat(np.repeat(region_mask, region, axis=2), region, axis=3)
    return up[:, :, :h, :w]


class DRQConvExecutor(ConvExecutor):
    """One convolution under input-directed (DRQ-style) quantization.

    Parameters
    ----------
    hi_bits / lo_bits:
        Precision used for sensitive / insensitive input regions (weights
        are quantized to the matching width for each part).
    region:
        Spatial tile size of the sensitivity analysis (DRQ uses small
        square regions; 2 keeps the mask fine-grained at CIFAR scale).
    target_sensitive:
        Calibrated fraction of sensitive input regions.
    threshold:
        Absolute region-magnitude threshold; overrides ``target_sensitive``
        when given (mirrors DRQ's learned threshold).
    """

    reads_calibration = True

    def __init__(
        self,
        conv: Conv2d,
        name: str,
        hi_bits: int = 8,
        lo_bits: int = 4,
        region: int = 2,
        target_sensitive: float = 0.5,
        threshold: float | None = None,
        observer: Observer | None = None,
        keep_masks: bool = True,
    ) -> None:
        super().__init__(conv, name)
        if hi_bits <= lo_bits:
            raise ValueError("hi_bits must exceed lo_bits")
        if not 0.0 <= target_sensitive <= 1.0:
            raise ValueError("target_sensitive must be in [0, 1]")
        self.hi_bits = hi_bits
        self.lo_bits = lo_bits
        self.region = region
        self.target_sensitive = target_sensitive
        self.threshold = threshold
        self.observer = observer or MinMaxObserver()
        self.keep_masks = keep_masks
        self._region_samples: list[np.ndarray] = []

        self.qp_a_hi: QParams | None = None
        self.qp_a_lo: QParams | None = None
        self._w_hi: np.ndarray | None = None
        self._w_lo: np.ndarray | None = None

    # -- calibration ------------------------------------------------------------

    def calibrate(self, x: np.ndarray) -> np.ndarray:
        self.observer.observe(x)
        if self.threshold is None:
            self._region_samples.append(
                region_mean_magnitude(x, self.region).reshape(-1)
            )
        return self.reference_forward(x)

    def freeze(self) -> None:
        w = self.conv.weight.data
        qp_w_hi = symmetric_qparams(float(np.max(np.abs(w))), self.hi_bits)
        qp_w_lo = symmetric_qparams(float(np.max(np.abs(w))), self.lo_bits)
        self._w_hi = fake_quantize(w, qp_w_hi)
        self._w_lo = fake_quantize(w, qp_w_lo)
        self.qp_a_hi = self.observer.qparams(self.hi_bits, signed=False)
        self.qp_a_lo = self.observer.qparams(self.lo_bits, signed=False)
        if self.threshold is None:
            if len(self._region_samples) == 0:
                raise RuntimeError("no calibration data for DRQ threshold")
            pool = np.concatenate(self._region_samples)
            if pool.size == 0:
                raise RuntimeError("calibration batches were all empty")
            self.threshold = float(
                np.quantile(pool, 1.0 - self.target_sensitive)
            )
            self._region_samples.clear()
        super().freeze()

    # -- inference -----------------------------------------------------------------

    def input_mask(self, x: np.ndarray) -> np.ndarray:
        """Per-pixel boolean input-sensitivity mask (N, 1, H, W)."""
        region_mask = region_mean_magnitude(x, self.region) > self.threshold
        return upsample_mask(region_mask, self.region, x.shape[2], x.shape[3])

    def mixed_precision_output(
        self, x: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Convolution with per-pixel mixed-precision inputs.

        Sensitive pixels contribute through the (hi-bit input, hi-bit
        weight) path; insensitive pixels through the (lo, lo) path.  The
        two partial convolutions sum to the mixed-precision output.
        """
        x_hi = fake_quantize(x, self.qp_a_hi) * mask
        x_lo = fake_quantize(x, self.qp_a_lo) * ~mask
        out = float_conv2d(x_hi, self._w_hi, None, self.conv.stride, self.conv.padding)
        out += float_conv2d(x_lo, self._w_lo, None, self.conv.stride, self.conv.padding)
        if self.conv.bias is not None:
            out = out + self.conv.bias.data.reshape(1, -1, 1, 1)
        return out

    def low_precision_output(self, x: np.ndarray) -> np.ndarray:
        """All-low-precision output (used by the Eq.-1 'extra precision' metric)."""
        x_lo = fake_quantize(x, self.qp_a_lo)
        out = float_conv2d(x_lo, self._w_lo, None, self.conv.stride, self.conv.padding)
        if self.conv.bias is not None:
            out = out + self.conv.bias.data.reshape(1, -1, 1, 1)
        return out

    def _mac_split(
        self, mask: np.ndarray, mask_cols: np.ndarray | None = None
    ) -> tuple[int, int]:
        """(hi, lo) MAC counts implied by a per-pixel input mask.

        The count of sensitive input pixels per output window is a
        convolution of the mask with an all-ones kernel — i.e. the row
        sums of the mask's im2col matrix.  Callers holding the column
        matrix already (see :meth:`run`) pass it via ``mask_cols`` and
        the conv collapses to one vectorized ``sum``; this is the DRQ
        side of the shared column-cache machinery
        (:mod:`repro.core.colcache`).
        """
        k, s, p = self.info.kernel_size, self.info.stride, self.info.padding
        if mask_cols is None:
            mask_cols = im2col(mask.astype(np.float64), k, s, p)
        hi_pixels = float(mask_cols.sum())  # sensitive input pixels over all windows
        total = self.record.out_h * self.record.out_w * mask.shape[0] * k * k
        hi = int(round(hi_pixels)) * self.info.in_channels * self.info.out_channels
        total_macs = total * self.info.in_channels * self.info.out_channels
        return hi, total_macs - hi

    def run(self, x: np.ndarray) -> np.ndarray:
        if not self.frozen:
            raise RuntimeError(f"executor {self.info.name} not frozen; calibrate first")
        self._note_shapes(x)
        mask = self.input_mask(x)
        out = self.mixed_precision_output(x, mask)

        hi, lo = self._mac_split(mask)
        self.record.macs["drq_hi"] += hi
        self.record.macs["drq_lo"] += lo
        # Track input sensitivity as a mask record (broadcast to channels
        # only logically; stored at (N,1,H,W) to stay compact).
        smask = SensitivityMask(mask, float(self.threshold))
        self.record.input_sensitive_total += int(mask.sum()) * self.info.in_channels
        self.record.input_total += mask.size * self.info.in_channels
        if self.keep_masks:
            self.record.extra["last_input_mask"] = smask
        return out


__all__ = [
    "DRQConvExecutor",
    "region_mean_magnitude",
    "upsample_mask",
]

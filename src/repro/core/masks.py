"""Sensitivity bit masks.

The sensitivity predictor stores one bit per output feature ("1" =
sensitive, computed at full precision; "0" = insensitive, kept at the
predictor's 2-bit partial result).  The same structure also represents
DRQ's *input* sensitivity masks.  Masks are the interface between the
quantization core and the accelerator simulator: ``repro.core.pipeline``
dumps them, ``repro.accel.simulator`` consumes them — exactly the paper's
methodology (Section 5.2: "we use Pytorch to dump the binary mask maps for
inference, which are then fed into our simulator").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class SensitivityMask:
    """Boolean mask over an output feature map batch (N, C, H, W)."""

    mask: np.ndarray
    threshold: float

    def __post_init__(self) -> None:
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 4:
            raise ValueError("mask must be (N, C, H, W)")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mask.shape

    @property
    def total(self) -> int:
        """Total output features across the batch."""
        return int(self.mask.size)

    @property
    def sensitive_count(self) -> int:
        return int(self._channel_counts.sum())

    @property
    def sensitive_fraction(self) -> float:
        return self.sensitive_count / self.total if self.total else 0.0

    @property
    def insensitive_fraction(self) -> float:
        return 1.0 - self.sensitive_fraction

    @cached_property
    def by_channel(self) -> np.ndarray:
        """Channel-major ``(C, N*H*W)`` copy, positions in ``(n, h, w)`` order.

        Per-channel and per-position reductions over this copy run along
        long contiguous rows; over the NCHW mask their inner loops are
        only C or H*W elements long, which is several times slower.
        """
        m = self.mask
        return np.ascontiguousarray(m.transpose(1, 0, 2, 3)).reshape(m.shape[1], -1)

    @cached_property
    def _channel_counts(self) -> np.ndarray:
        counts = self.by_channel.sum(axis=1, dtype=np.int64)
        counts.flags.writeable = False  # shared by every caller
        return counts

    def per_channel_counts(self) -> np.ndarray:
        """Sensitive-output count per output channel, summed over the batch.

        This is the per-OFM workload vector consumed by the accelerator's
        workload scheduler (Figs 14-16).  Computed once per mask and
        returned read-only.
        """
        return self._channel_counts

    def sensitive_positions(self) -> np.ndarray:
        """Per output position (``n, h, w`` order): is any channel sensitive?"""
        return self.by_channel.any(axis=0)

    def per_image_channel_counts(self) -> np.ndarray:
        """Shape (N, C) sensitive counts: one OFM workload row per image."""
        return self.mask.sum(axis=(2, 3)).astype(np.int64)


def mask_from_magnitude(values: np.ndarray, threshold: float) -> SensitivityMask:
    """Build a mask by thresholding ``|values|`` (the paper's predictor rule)."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    return SensitivityMask(np.abs(values) > threshold, threshold)


__all__ = ["SensitivityMask", "mask_from_magnitude"]

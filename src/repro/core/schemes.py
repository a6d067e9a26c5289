"""Quantization scheme registry.

A :class:`Scheme` bundles a name with a factory that builds the per-layer
conv executor.  The five schemes of the paper's evaluation (Fig. 18):

=============  =====================================================
``fp32``       full-precision reference
``int16``      DoReFa static 16-bit (Table 2's INT16 accelerator)
``int8``       DoReFa static 8-bit
``drq84``      DRQ with INT8 sensitive / INT4 insensitive inputs
``drq42``      DRQ with INT4 / INT2 (the low-bitwidth failure case)
``odq``        output-directed dynamic quantization, INT4 w/ 2-bit
               prediction (threshold per model, Table 3)
=============  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.base import ConvExecutor
from repro.core.drq import DRQConvExecutor
from repro.core.odq import ODQConvExecutor
from repro.core.static_quant import FP32ConvExecutor, StaticQuantConvExecutor
from repro.nn.layers import Conv2d


@dataclass(frozen=True)
class Scheme:
    """A named quantization scheme.

    Attributes
    ----------
    name:
        Registry key, also used in reports.
    kind:
        One of ``fp32 | static | drq | odq`` (drives accelerator mapping).
    factory:
        ``(conv, layer_name) -> ConvExecutor``.
    params:
        The scheme's salient parameters, for reporting.
    """

    name: str
    kind: str
    factory: Callable[[Conv2d, str], ConvExecutor]
    params: dict = field(default_factory=dict)

    def make_executor(self, conv: Conv2d, name: str) -> ConvExecutor:
        return self.factory(conv, name)


def fp32_scheme() -> Scheme:
    return Scheme("fp32", "fp32", FP32ConvExecutor)


def static_scheme(bits: int) -> Scheme:
    return Scheme(
        f"int{bits}",
        "static",
        lambda conv, name: StaticQuantConvExecutor(conv, name, bits=bits),
        params={"bits": bits},
    )


def drq_scheme(
    hi_bits: int = 8,
    lo_bits: int = 4,
    region: int = 2,
    target_sensitive: float = 0.5,
    threshold: float | None = None,
) -> Scheme:
    params = {
        "hi_bits": hi_bits,
        "lo_bits": lo_bits,
        "region": region,
        "target_sensitive": target_sensitive,
        "threshold": threshold,
    }
    return Scheme(
        f"drq{hi_bits}{lo_bits}",
        "drq",
        lambda conv, name: DRQConvExecutor(
            conv,
            name,
            hi_bits=hi_bits,
            lo_bits=lo_bits,
            region=region,
            target_sensitive=target_sensitive,
            threshold=threshold,
            keep_masks=False,  # no caller reads record.extra["last_input_mask"]
        ),
        params=params,
    )


def odq_scheme(
    threshold: float,
    total_bits: int = 4,
    low_bits: int = 2,
    keep_masks: bool = True,
    weight_percentile: float = 97.0,
    compensate_low_bits: bool = True,
    threshold_mode: str = "absolute",
    exec_path: str = "auto",
) -> Scheme:
    params = {
        "threshold": threshold,
        "total_bits": total_bits,
        "low_bits": low_bits,
        "weight_percentile": weight_percentile,
        "compensate_low_bits": compensate_low_bits,
        "threshold_mode": threshold_mode,
        "exec_path": exec_path,
    }
    return Scheme(
        "odq",
        "odq",
        lambda conv, name: ODQConvExecutor(
            conv,
            name,
            threshold=threshold,
            total_bits=total_bits,
            low_bits=low_bits,
            keep_masks=keep_masks,
            weight_percentile=weight_percentile,
            compensate_low_bits=compensate_low_bits,
            threshold_mode=threshold_mode,
            exec_path=exec_path,
        ),
        params=params,
    )


#: Named scheme builders for CLI / serving lookup.  Each entry maps a
#: lowercase registry name to ``(threshold, **extras) -> Scheme``;
#: builders that do not use a threshold (or an extra knob) simply ignore
#: it.  ``exec_path`` is the ODQ result-generation path
#: (``auto|dense|sparse``, see :mod:`repro.core.odq`).  Served records
#: keep no masks: the census reads only the counts.
_NAMED_SCHEMES: dict[str, Callable[..., Scheme]] = {
    "fp32": lambda _t, **_kw: fp32_scheme(),
    "int16": lambda _t, **_kw: static_scheme(16),
    "int8": lambda _t, **_kw: static_scheme(8),
    "int4": lambda _t, **_kw: static_scheme(4),
    "drq84": lambda t, **_kw: drq_scheme(8, 4, threshold=t),
    "drq42": lambda t, **_kw: drq_scheme(4, 2, threshold=t),
    "odq": lambda t, exec_path="auto", **_kw: odq_scheme(
        t, exec_path=exec_path, keep_masks=False
    ),
}

#: Threshold used when a thresholded scheme is requested without one
#: (VGG-16's Table-3 value; a sensible middle of the published range).
DEFAULT_SERVE_THRESHOLD: float = 0.3


def available_schemes() -> list[str]:
    """Registry names accepted by :func:`build_scheme` (CLI ``--scheme``)."""
    return sorted(_NAMED_SCHEMES)


def build_scheme(
    name: str,
    threshold: float | None = None,
    exec_path: str | None = None,
) -> Scheme:
    """Build a scheme from its registry name (``python -m repro serve``).

    ``threshold`` applies to the thresholded schemes (``odq``, ``drq*``);
    when omitted, :data:`DEFAULT_SERVE_THRESHOLD` is used.  ``exec_path``
    selects the ODQ result-generation path (``auto|dense|sparse``;
    ignored by every other scheme).  ODQ and DRQ executors are built
    with ``keep_masks=False``.  Unknown names raise ``KeyError``
    listing the registry.
    """
    key = name.lower().replace("-", "").replace("_", "")
    try:
        factory = _NAMED_SCHEMES[key]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; available: {available_schemes()}"
        ) from None
    theta = DEFAULT_SERVE_THRESHOLD if threshold is None else threshold
    extras = {} if exec_path is None else {"exec_path": exec_path}
    return factory(theta, **extras)


def paper_schemes(odq_threshold: float) -> dict[str, Scheme]:
    """The comparison set of Fig. 18/19/21, keyed by display name."""
    return {
        "INT16": static_scheme(16),
        "INT8": static_scheme(8),
        "DRQ 8-4": drq_scheme(8, 4),
        "DRQ 4-2": drq_scheme(4, 2),
        "ODQ 4-2": odq_scheme(odq_threshold),
    }


__all__ = [
    "Scheme",
    "fp32_scheme",
    "static_scheme",
    "drq_scheme",
    "odq_scheme",
    "paper_schemes",
    "available_schemes",
    "build_scheme",
    "DEFAULT_SERVE_THRESHOLD",
]

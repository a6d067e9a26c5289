"""Quantization substrate: uniform quantizers, DoReFa QAT, bit-plane split."""

from repro.quant.uniform import (
    QParams,
    symmetric_qparams,
    affine_qparams,
    quantize,
    dequantize,
    fake_quantize,
    quantization_error_bound,
)
from repro.quant.observer import Observer, MinMaxObserver, PercentileObserver
from repro.quant.bitsplit import BitPlanes, split_planes, cross_terms, predictor_term
from repro.quant.dorefa import (
    quantize_k,
    dorefa_weight_transform,
    fake_quant_weight,
    fake_quant_act,
    QuantConv2d,
    QuantLinear,
    quantize_model_inplace,
)

__all__ = [
    "QParams",
    "symmetric_qparams",
    "affine_qparams",
    "quantize",
    "dequantize",
    "fake_quantize",
    "quantization_error_bound",
    "Observer",
    "MinMaxObserver",
    "PercentileObserver",
    "BitPlanes",
    "split_planes",
    "cross_terms",
    "predictor_term",
    "quantize_k",
    "dorefa_weight_transform",
    "fake_quant_weight",
    "fake_quant_act",
    "QuantConv2d",
    "QuantLinear",
    "quantize_model_inplace",
]

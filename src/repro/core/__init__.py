"""The paper's contribution: ODQ, the DRQ baseline, and static quantization,
wired together by the quantized inference engine."""

from repro.core.base import (
    ConvLayerInfo,
    LayerRecord,
    ConvExecutor,
    float_conv2d,
    int_conv2d,
)
from repro.core.masks import SensitivityMask, mask_from_magnitude
from repro.core.static_quant import FP32ConvExecutor, StaticQuantConvExecutor
from repro.core.odq import ODQConvExecutor, odq_mixed_conv, odq_weight_qparams
from repro.core.odq_qat import (
    ODQAwareConv2d,
    convert_to_odq_qat,
    convert_from_odq_qat,
    finetune_odq,
)
from repro.core.drq import DRQConvExecutor, region_mean_magnitude, upsample_mask
from repro.core.schemes import (
    Scheme,
    available_schemes,
    build_scheme,
    fp32_scheme,
    static_scheme,
    drq_scheme,
    odq_scheme,
    paper_schemes,
)
from repro.core.pipeline import (
    InstrumentedConv,
    QuantizedInferenceEngine,
    run_scheme,
)
from repro.core.threshold import (
    ThresholdSearchResult,
    initial_threshold,
    adaptive_threshold_search,
    ThresholdSweepPoint,
    threshold_sweep,
)
from repro.core.stats import (
    BUCKET_LABELS,
    MotivationLayerStats,
    input_fraction_per_output,
    motivation_stats_for_layer,
    odq_precision_loss_for_layer,
)

__all__ = [
    "ConvLayerInfo",
    "LayerRecord",
    "ConvExecutor",
    "float_conv2d",
    "int_conv2d",
    "SensitivityMask",
    "mask_from_magnitude",
    "FP32ConvExecutor",
    "StaticQuantConvExecutor",
    "ODQConvExecutor",
    "odq_mixed_conv",
    "odq_weight_qparams",
    "ODQAwareConv2d",
    "convert_to_odq_qat",
    "convert_from_odq_qat",
    "finetune_odq",
    "DRQConvExecutor",
    "region_mean_magnitude",
    "upsample_mask",
    "Scheme",
    "available_schemes",
    "build_scheme",
    "fp32_scheme",
    "static_scheme",
    "drq_scheme",
    "odq_scheme",
    "paper_schemes",
    "InstrumentedConv",
    "QuantizedInferenceEngine",
    "run_scheme",
    "ThresholdSearchResult",
    "initial_threshold",
    "adaptive_threshold_search",
    "ThresholdSweepPoint",
    "threshold_sweep",
    "BUCKET_LABELS",
    "MotivationLayerStats",
    "input_fraction_per_output",
    "motivation_stats_for_layer",
    "odq_precision_loss_for_layer",
]

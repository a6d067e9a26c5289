"""Global configuration constants for the ODQ reproduction.

Centralises the numeric constants shared across the quantization core and
the accelerator simulator so that benchmarks, tests, and examples agree on
a single source of truth.  Values that come straight from the paper are
annotated with the table/figure/section they appear in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------

#: Default seed used by every dataset generator / initializer unless the
#: caller supplies its own.  Experiments are fully deterministic given this.
DEFAULT_SEED: int = 20230807  # ICPP 2023 opening day.

# ---------------------------------------------------------------------------
# Quantization (Section 3)
# ---------------------------------------------------------------------------

#: Total bit width used by ODQ operands after FP32 -> INT4 quantization.
ODQ_TOTAL_BITS: int = 4

#: Bit width of the high-order slice (I_HBS / W_HBS) fed to the predictor.
ODQ_HIGH_BITS: int = 2

#: Bit width of the low-order slice (I_LBS / W_LBS); the paper's ``N_LBS``.
ODQ_LOW_BITS: int = ODQ_TOTAL_BITS - ODQ_HIGH_BITS

# ---------------------------------------------------------------------------
# PE slice geometry (Section 4.2/4.3)
# ---------------------------------------------------------------------------

#: PE arrays in one slice: 9 fixed predictor + 6 fixed executor + 12
#: reconfigurable = 27 (Section 4.2).
SLICE_TOTAL_ARRAYS: int = 27
SLICE_FIXED_PREDICTOR_ARRAYS: int = 9
SLICE_FIXED_EXECUTOR_ARRAYS: int = 6
SLICE_RECONFIGURABLE_ARRAYS: int = 12

#: Executor PE arrays are grouped into this many clusters so that one
#: cluster issues a memory request per cycle (Section 4.3).
EXECUTOR_CLUSTERS: int = 3

#: Cycles for one predictor INT2xINT2 MAC (Section 4, "one clock cycle").
PREDICTOR_MAC_CYCLES: int = 1

#: Cycles for the executor to finish the three remaining Eq.-3 cross terms
#: on a BitFusion-style multi-precision PE ("three clock cycles").
EXECUTOR_MAC_CYCLES: int = 3

#: Cycles for a full INT4xINT4 MAC on a multi-precision INT2 PE (BitFusion).
FULL_INT4_MAC_CYCLES: int = 4

#: Cycles for an INT8xINT8 MAC on a multi-precision INT4 PE (DRQ hardware).
INT8_ON_INT4_PE_CYCLES: int = 4

# ---------------------------------------------------------------------------
# Table 2: accelerator configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AcceleratorSpec:
    """One column of the paper's Table 2.

    Parameters
    ----------
    name:
        Human-readable accelerator name.
    num_pes:
        Number of processing elements at the given native bit width that
        fit in the common 0.17 mm^2 area budget.
    native_bits:
        Native operand width of one PE.
    onchip_memory_bytes:
        On-chip SRAM for weights/inputs/outputs (identical across designs).
    """

    name: str
    num_pes: int
    native_bits: int
    onchip_memory_bytes: int = int(0.17 * 2**20)


#: Table 2 of the paper, verbatim.
ACCEL_INT16 = AcceleratorSpec("INT16", num_pes=120, native_bits=16)
ACCEL_INT8 = AcceleratorSpec("INT8", num_pes=1692, native_bits=4)
ACCEL_DRQ = AcceleratorSpec("DRQ", num_pes=1692, native_bits=4)
ACCEL_ODQ = AcceleratorSpec("ODQ", num_pes=4860, native_bits=2)

#: Number of PEs in one PE array (so ODQ's 4860 PEs = 180 PEs/array x 27).
PES_PER_ARRAY: int = ACCEL_ODQ.num_pes // SLICE_TOTAL_ARRAYS

# ---------------------------------------------------------------------------
# Table 3: per-model thresholds published by the paper
# ---------------------------------------------------------------------------

PAPER_THRESHOLDS: dict[str, float] = {
    "resnet56": 0.5,
    "resnet20": 0.5,
    "vgg16": 0.3,
    "densenet": 0.05,
}

# ---------------------------------------------------------------------------
# Evaluation defaults
# ---------------------------------------------------------------------------


@dataclass
class ExperimentScale:
    """Knobs that scale the experiments between CI-size and paper-size.

    The paper trains full ResNet-56 / VGG-16 on real CIFAR; offline we use
    the same topologies at configurable width on synthetic data (see
    DESIGN.md section 2).  ``small()`` finishes in seconds and is used by
    tests; ``default()`` is used by the benchmark harness.
    """

    image_size: int = 32
    channels: int = 3
    num_train: int = 2048
    num_test: int = 512
    width_multiplier: float = 1.0
    epochs: int = 10
    batch_size: int = 64
    noise: float = 0.2
    max_shift: int = 2

    @classmethod
    def small(cls) -> "ExperimentScale":
        return cls(
            image_size=16,
            num_train=320,
            num_test=96,
            width_multiplier=0.25,
            epochs=6,
            batch_size=32,
            noise=0.12,
            max_shift=1,
        )

    @classmethod
    def default(cls) -> "ExperimentScale":
        return cls()


def scale_from_env() -> ExperimentScale:
    """Pick the experiment scale from ``REPRO_SCALE`` (small|default)."""
    mode = os.environ.get("REPRO_SCALE", "small").lower()
    if mode == "default":
        return ExperimentScale.default()
    return ExperimentScale.small()


__all__ = [
    "DEFAULT_SEED",
    "ODQ_TOTAL_BITS",
    "ODQ_HIGH_BITS",
    "ODQ_LOW_BITS",
    "SLICE_TOTAL_ARRAYS",
    "SLICE_FIXED_PREDICTOR_ARRAYS",
    "SLICE_FIXED_EXECUTOR_ARRAYS",
    "SLICE_RECONFIGURABLE_ARRAYS",
    "EXECUTOR_CLUSTERS",
    "PREDICTOR_MAC_CYCLES",
    "EXECUTOR_MAC_CYCLES",
    "FULL_INT4_MAC_CYCLES",
    "INT8_ON_INT4_PE_CYCLES",
    "AcceleratorSpec",
    "ACCEL_INT16",
    "ACCEL_INT8",
    "ACCEL_DRQ",
    "ACCEL_ODQ",
    "PES_PER_ARRAY",
    "PAPER_THRESHOLDS",
    "ExperimentScale",
    "scale_from_env",
]

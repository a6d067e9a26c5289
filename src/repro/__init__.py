"""repro — reproduction of "Output-Directed Dynamic Quantization for DNN
Acceleration" (Jiang et al., ICPP 2023).

Package layout
--------------
``repro.nn``
    NumPy autograd CNN substrate (the PyTorch stand-in).
``repro.quant``
    Uniform quantizers, DoReFa QAT, Eq.-3 bit-plane decomposition.
``repro.models`` / ``repro.data``
    The paper's evaluation networks and synthetic dataset stand-ins.
``repro.core``
    The contribution: ODQ, the DRQ baseline, static quantization, the
    quantized inference engine, adaptive threshold search, motivation
    metrics.
``repro.accel``
    Cycle-approximate model of the reconfigurable ODQ accelerator and the
    Table-2 comparison designs (PE allocation, scheduling, memory, energy).
``repro.analysis``
    Drivers that regenerate every table and figure of the paper.
``repro.serve``
    Production serving: one model session per server, dynamic
    micro-batching, engine worker pool, metrics, and a stdlib HTTP front
    end (``docs/serving.md``).

Importing ``repro`` loads only this module and :mod:`repro.config`;
import a subpackage by name to use it (``python -m repro serve`` never
loads the analysis drivers or the accelerator model).

Quickstart
----------
>>> from repro.data import synthetic_cifar10
>>> from repro.models import resnet20
>>> from repro.core import run_scheme, odq_scheme
>>> ds = synthetic_cifar10(num_train=256, num_test=128, image_size=16)
>>> model = resnet20(scale=0.25)
>>> # ... train with repro.nn.Trainer ...
>>> acc, records = run_scheme(model, odq_scheme(0.3),
...                           ds.x_train[:64], ds.x_test, ds.y_test)
"""

from repro.config import (
    ACCEL_DRQ,
    ACCEL_INT8,
    ACCEL_INT16,
    ACCEL_ODQ,
    DEFAULT_SEED,
    PAPER_THRESHOLDS,
    ExperimentScale,
)

__version__ = "1.0.0"

__all__ = [
    "ACCEL_DRQ",
    "ACCEL_INT8",
    "ACCEL_INT16",
    "ACCEL_ODQ",
    "DEFAULT_SEED",
    "PAPER_THRESHOLDS",
    "ExperimentScale",
    "__version__",
]

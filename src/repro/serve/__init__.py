"""``repro.serve`` — batched quantized-inference serving.

The production-facing layer of the ODQ reproduction: long-lived model
sessions (train/calibrate/pack once), dynamic micro-batching, a
thread-confined engine worker pool, live metrics, and a dependency-free
HTTP front end.  See ``docs/serving.md`` for the architecture tour and
``python -m repro serve --help`` for the CLI.
"""

from repro.serve.batcher import BatcherClosed, MicroBatch, MicroBatcher
from repro.serve.config import ServeConfig
from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.server import InferenceServer
from repro.serve.session import ModelSession
from repro.serve.worker import WorkerPool, WorkerStats

__all__ = [
    "BatcherClosed",
    "MicroBatch",
    "MicroBatcher",
    "ServeConfig",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "InferenceServer",
    "ModelSession",
    "WorkerPool",
    "WorkerStats",
]

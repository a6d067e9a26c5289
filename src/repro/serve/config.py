"""Serving configuration.

One dataclass gathers every tuning knob of the serving stack (session
build, micro-batching policy, worker pool size, HTTP front end) so the
CLI, tests, and benchmarks construct servers from the same vocabulary.

Compute parallelism comes from one knob: ``workers`` engine threads.
Each GEMM runs on the thread that issues it (:mod:`repro.core.gemm`), so
the compute lanes are exactly that count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DEFAULT_SEED
from repro.obs.log import get_logger
from repro.utils.host import usable_cores


@dataclass(frozen=True)
class ServeConfig:
    """Knobs for the ``repro.serve`` stack.

    Session
    -------
    model:
        Model registry name (``lenet``, ``resnet20``, ``vgg16`` …).
    scheme:
        Scheme registry name (``odq``, ``int8``, ``drq84`` …; see
        :func:`repro.core.schemes.available_schemes`).
    threshold:
        Sensitivity threshold for thresholded schemes; ``None`` picks
        :data:`repro.core.schemes.DEFAULT_SERVE_THRESHOLD`.
    dataset:
        Synthetic dataset used for (optional) training and calibration.
    train_epochs:
        Epochs of warm-up training at session build.  ``0`` skips
        training entirely (random-init weights) — the right choice for
        latency/throughput tests where accuracy is irrelevant.
    calib_images:
        Number of calibration images sampled from the dataset.  Read
        only by schemes whose executors observe calibration data
        (``int*``, ``drq*``, and ODQ in scaled mode); the serve default
        (absolute-threshold ODQ) freezes without a calibration pass.
    exec_path:
        ODQ result-generation path (``auto | dense | sparse``; see
        :mod:`repro.core.odq`).  Ignored by non-ODQ schemes.
    use_plan:
        Compile shape-specialized inference plans
        (:mod:`repro.core.plan`) at session warm-up and reuse them per
        batch shape.  ``False`` (the ``--no-plan`` escape hatch) keeps
        the legacy per-call path.  This changes speed, never results
        (planned execution is bit-identical).

    Batching
    --------
    max_batch_size:
        Upper bound on coalesced micro-batch size.  The batcher never
        holds a request waiting for company; see
        :mod:`repro.serve.batcher`.

    Workers / HTTP
    --------------
    workers:
        Engine worker threads; each confines its own engine clone.
    gemm_threads:
        Accepts only ``None`` or ``1`` and is read by nothing.  It is
        kept because the end-to-end benchmark's reference session
        (``benchmarks/e2e/run.py``) passes ``gemm_threads=1``; every
        GEMM runs on its calling thread.
    host / port:
        Bind address.  ``port=0`` asks the OS for a free port (tests).

    Observability
    -------------
    drift_band:
        Alert band for the sensitivity drift monitor
        (:mod:`repro.obs.drift`): a layer whose EWMA sensitive ratio
        moves more than this from its warm-up baseline flips its
        ``drift_alert`` gauge and logs a warning.
    """

    model: str = "lenet"
    scheme: str = "odq"
    threshold: float | None = None
    dataset: str = "mnist"
    train_epochs: int = 0
    calib_images: int = 64
    exec_path: str = "auto"
    use_plan: bool = True
    seed: int = DEFAULT_SEED

    max_batch_size: int = 8

    workers: int = 2
    gemm_threads: int | None = None
    host: str = "127.0.0.1"
    port: int = 8321

    drift_band: float = 0.15

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.gemm_threads not in (None, 1):
            raise ValueError(
                f"gemm_threads must be None or 1, got {self.gemm_threads}"
            )
        if self.train_epochs < 0:
            raise ValueError(f"train_epochs must be >= 0, got {self.train_epochs}")
        if self.calib_images < 1:
            raise ValueError(f"calib_images must be >= 1, got {self.calib_images}")
        if self.exec_path not in ("auto", "dense", "sparse"):
            raise ValueError(
                f"exec_path must be auto|dense|sparse, got {self.exec_path!r}"
            )
        if self.drift_band <= 0:
            raise ValueError(
                f"drift_band must be positive, got {self.drift_band}"
            )
        self._warn_if_oversubscribed()

    def _warn_if_oversubscribed(self) -> None:
        """Log when the worker count exceeds the affinity mask.

        Each worker thread is one compute lane.  Exceeding the usable
        cores silently timeshares — legal, but it erases the scaling the
        knob promises, so surface it once at config build instead of
        letting users discover it in a flat benchmark curve.
        """
        cores = usable_cores()
        if self.workers > cores:
            get_logger("repro.serve.config").warning(
                "compute_lanes_oversubscribed",
                lanes=self.workers,
                usable_cores=cores,
            )


__all__ = ["ServeConfig"]

"""Model sessions: build once, serve forever.

The one-shot scripts rebuild a model, recalibrate, and re-quantize on
every invocation.  A :class:`ModelSession` does that expensive work once
— synthesize data, (optionally) train, install a
:class:`~repro.core.pipeline.QuantizedInferenceEngine`, calibrate it
(freezing/pre-packing the DoReFa bit-plane weights), and run one warm-up
inference — and then hands out ready-to-run engines for the lifetime of
the process.

Each :class:`~repro.serve.server.InferenceServer` owns exactly one
session, built from its own :class:`~repro.serve.config.ServeConfig`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.config import scale_from_env
from repro.core.pipeline import QuantizedInferenceEngine
from repro.core.schemes import DEFAULT_SERVE_THRESHOLD, build_scheme
from repro.data.synthetic import (
    Dataset,
    synthetic_cifar10,
    synthetic_cifar100,
    synthetic_mnist,
)
from repro.models.registry import build_model
from repro.nn.optim import SGD
from repro.nn.trainer import Trainer
from repro.obs import trace
from repro.obs.drift import baseline_from_engine
from repro.obs.log import get_logger
from repro.serve.config import ServeConfig

_log = get_logger("repro.serve.session")


def _build_dataset(config: ServeConfig) -> Dataset:
    scale = scale_from_env()
    kwargs = dict(
        num_train=max(config.calib_images, 64 if config.train_epochs == 0 else scale.num_train),
        num_test=64,
        seed=config.seed,
        max_shift=scale.max_shift,
    )
    name = config.dataset.lower()
    if name == "mnist":
        return synthetic_mnist(**kwargs)
    kwargs.update(image_size=scale.image_size, noise=scale.noise)
    if name == "cifar10":
        return synthetic_cifar10(**kwargs)
    if name == "cifar100":
        return synthetic_cifar100(**kwargs)
    raise KeyError(f"unknown dataset {config.dataset!r} (mnist|cifar10|cifar100)")


@dataclass
class SessionStats:
    """Provenance and cost of one session build."""

    build_seconds: float = 0.0
    train_epochs: int = 0
    calib_images: int = 0
    packed_layers: int = 0
    engines_cloned: int = 0
    plan_warmed: bool = False
    created_at: float = field(default_factory=time.time)


class ModelSession:
    """A fully-built, calibrated, ready-to-run model + engine pair.

    Construction performs the entire amortizable pipeline:

    1. synthesize the dataset and build the model (optionally training it
       for ``config.train_epochs`` epochs);
    2. install the quantization scheme's instrumented executors;
    3. calibrate and freeze — freezing pre-quantizes the weights and
       pre-packs their DoReFa bit planes (``W_HBS``) so serving never
       touches FP weights again.  Only schemes whose executors observe
       calibration data (``int*``, ``drq*``, scaled-mode ODQ) run a
       forward pass over the ``config.calib_images`` images; the serve
       default (absolute-threshold ODQ) reads none and just freezes;
    4. run one warm-up inference on :attr:`sample_inputs` (compiling the
       steady-state plan when plans are on); its per-layer sensitive
       ratios become :attr:`baseline`, the drift monitor's reference.

    After that, :meth:`clone_engine` yields independent engines for
    thread-confined workers, and :attr:`engine` is the primary instance.
    """

    def __init__(self, config: ServeConfig):
        t0 = time.perf_counter()
        self.config = config
        #: The sensitivity threshold in force: ``config.threshold``, or
        #: :data:`DEFAULT_SERVE_THRESHOLD` when that is ``None``.
        self.threshold: float = (
            DEFAULT_SERVE_THRESHOLD
            if config.threshold is None
            else float(config.threshold)
        )
        self.scheme = build_scheme(
            config.scheme, self.threshold, exec_path=config.exec_path
        )
        model, scheme_name = config.model.lower(), config.scheme.lower()
        with trace.span("serve.session_build", model=model, scheme=scheme_name):
            self._build(config, t0)
        _log.info(
            "session_built",
            model=model,
            scheme=scheme_name,
            threshold=self.threshold,
            build_seconds=round(self.stats.build_seconds, 3),
            layers=len(self.engine.executors),
        )

    def _build(self, config: ServeConfig, t0: float) -> None:
        """The expensive part of construction (traced as one span)."""
        dataset = _build_dataset(config)
        self.input_shape: tuple[int, int, int] = dataset.image_shape
        self.num_classes: int = dataset.num_classes

        rng = np.random.default_rng(config.seed)
        scale = scale_from_env()
        self.model = build_model(
            config.model,
            num_classes=dataset.num_classes,
            scale=scale.width_multiplier,
            rng=rng,
            in_channels=dataset.image_shape[0],
            image_size=dataset.image_shape[1],
        )
        if config.train_epochs > 0:
            trainer = Trainer(
                self.model,
                SGD(self.model.parameters(), lr=0.05, momentum=0.9),
                batch_size=scale.batch_size,
                rng=np.random.default_rng(config.seed),
            )
            trainer.fit(
                dataset.x_train,
                dataset.y_train,
                dataset.x_test,
                dataset.y_test,
                epochs=config.train_epochs,
            )
        self.model.eval()

        calib = dataset.x_train[: config.calib_images]
        #: A held-out batch kept around for benchmarks and smoke tests; a
        #: copy, so the rest of the test split is freed with the dataset.
        self.sample_inputs: np.ndarray = dataset.x_test[:16].copy()

        self.engine = QuantizedInferenceEngine(self.model, self.scheme)
        self.engine.calibrate(calib)
        self.engine.use_plan = config.use_plan
        #: ``{layer: sensitive ratio}`` of the warm-up inference.
        self.baseline: dict[str, float] = self._warm_up(config)

        self.stats = SessionStats(
            build_seconds=time.perf_counter() - t0,
            train_epochs=config.train_epochs,
            calib_images=len(calib),
            packed_layers=sum(1 for ex in self.engine.executors.values() if ex.frozen),
            plan_warmed=config.use_plan,
        )
        self._clone_lock = threading.Lock()

    def _warm_up(self, config: ServeConfig) -> dict[str, float]:
        """One inference before serving starts; returns its sensitive ratios.

        The batch is the batcher's full coalesced shape
        (``max_batch_size``), so with plans on the first loaded request
        doesn't pay the plan compile.  The inference runs against scratch
        layer records, whose per-layer ratios are returned; the session's
        real records are restored, so serving counters start at 0.
        """
        reps = -(-config.max_batch_size // len(self.sample_inputs))
        warm = np.concatenate([self.sample_inputs] * reps)[: config.max_batch_size]
        engine = self.engine
        saved = {name: ex.record for name, ex in engine.executors.items()}
        try:
            engine.reset_records()
            with trace.span("serve.warm_up", batch=int(warm.shape[0])):
                engine.infer(warm)
            return baseline_from_engine(engine)
        finally:
            for name, ex in engine.executors.items():
                ex.record = saved[name]

    # -- engines ------------------------------------------------------------

    def clone_engine(self) -> QuantizedInferenceEngine:
        """An independent calibrated engine for one worker thread."""
        clone = self.engine.clone()
        with self._clone_lock:
            self.stats.engines_cloned += 1
        return clone

    def engines_for_workers(self, n: int) -> list[QuantizedInferenceEngine]:
        """Primary engine + (n-1) clones: one thread-confined engine each."""
        if n < 1:
            raise ValueError("need at least one worker")
        return [self.engine] + [self.clone_engine() for _ in range(n - 1)]

    # -- introspection ------------------------------------------------------

    def label(self) -> str:
        """``model=… scheme=… threshold=… exec_path=…`` for report headers."""
        return (
            f"model={self.config.model.lower()} "
            f"scheme={self.config.scheme.lower()} "
            f"threshold={self.threshold} exec_path={self.config.exec_path}"
        )

    def describe(self) -> dict:
        """JSON-safe session summary (surfaced by ``/healthz``)."""
        return {
            "model": self.config.model.lower(),
            "scheme": self.config.scheme.lower(),
            "threshold": self.threshold,
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "quantized_layers": len(self.engine.executors),
            "build_seconds": round(self.stats.build_seconds, 4),
            "train_epochs": self.stats.train_epochs,
            "calib_images": self.stats.calib_images,
            "packed_layers": self.stats.packed_layers,
            "engines_cloned": self.stats.engines_cloned,
            "plan": {
                "warmed": self.stats.plan_warmed,
                **self.engine.plan_stats(),
            },
        }


__all__ = ["SessionStats", "ModelSession"]

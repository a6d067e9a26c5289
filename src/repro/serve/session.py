"""Model sessions: build once, serve forever.

The one-shot scripts rebuild a model, recalibrate, and re-quantize on
every invocation.  A :class:`ModelSession` does that expensive work once
— synthesize data, (optionally) train, install a
:class:`~repro.core.pipeline.QuantizedInferenceEngine`, calibrate it, and
freeze/pre-pack the DoReFa bit-plane weights — and then hands out
ready-to-run engines for the lifetime of the process.

:class:`SessionManager` caches sessions keyed by
``(model, scheme, threshold)`` so a server hosting several configurations
pays each build exactly once, even under concurrent first requests
(per-key build locks).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.workbench import scale_from_env
from repro.core.pipeline import QuantizedInferenceEngine
from repro.core.schemes import DEFAULT_SERVE_THRESHOLD, Scheme, build_scheme
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
from repro.obs.log import get_logger
from repro.serve.config import ServeConfig

_log = get_logger("repro.serve.session")


@dataclass(frozen=True)
class SessionKey:
    """Cache key: one session per (model, scheme, threshold, exec_path)."""

    model: str
    scheme: str
    threshold: float
    exec_path: str = "auto"

    @classmethod
    def from_config(cls, config: ServeConfig) -> "SessionKey":
        theta = (
            DEFAULT_SERVE_THRESHOLD
            if config.threshold is None
            else float(config.threshold)
        )
        return cls(
            config.model.lower(),
            config.scheme.lower(),
            theta,
            getattr(config, "exec_path", "auto"),
        )


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
    3. calibrate on ``config.calib_images`` images and freeze — freezing
       pre-quantizes the weights and pre-packs their DoReFa bit planes
       (``W_HBS``) so serving never touches FP weights again.

    After that, :meth:`clone_engine` yields independent engines for
    thread-confined workers, and :attr:`engine` is the primary instance.
    """

    def __init__(self, config: ServeConfig, scheme: Scheme | None = None):
        t0 = time.perf_counter()
        self.config = config
        self.key = SessionKey.from_config(config)
        self.scheme = scheme or build_scheme(
            config.scheme, self.key.threshold, exec_path=self.key.exec_path
        )
        with trace.span(
            "serve.session_build", model=self.key.model, scheme=self.key.scheme
        ):
            self._build(config, t0)
        _log.info(
            "session_built",
            model=self.key.model,
            scheme=self.key.scheme,
            threshold=self.key.threshold,
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
        #: A held-out batch kept around for benchmarks and smoke tests.
        self.sample_inputs: np.ndarray = dataset.x_test[: min(16, len(dataset.x_test))]

        self.engine = QuantizedInferenceEngine(self.model, self.scheme)
        self.engine.calibrate(calib)
        self.engine.use_plan = config.use_plan
        plan_warmed = False
        if config.use_plan:
            self._warm_plan(config)
            plan_warmed = True

        self.stats = SessionStats(
            build_seconds=time.perf_counter() - t0,
            train_epochs=config.train_epochs,
            calib_images=len(calib),
            packed_layers=sum(1 for ex in self.engine.executors.values() if ex.frozen),
            plan_warmed=plan_warmed,
        )
        self._clone_lock = threading.Lock()

    def _warm_plan(self, config: ServeConfig) -> None:
        """Compile the steady-state inference plan before serving starts.

        Specializes on the batcher's full coalesced batch shape
        (``max_batch_size``), so the first loaded request doesn't pay the
        compile.  The warm inference runs against scratch layer records:
        the session's real records stay exactly as calibration left them
        (they seed the drift-monitor baseline).
        """
        reps = -(-config.max_batch_size // len(self.sample_inputs))
        warm = np.concatenate([self.sample_inputs] * reps)[: config.max_batch_size]
        engine = self.engine
        saved = {name: ex.record for name, ex in engine.executors.items()}
        try:
            engine.reset_records()
            with trace.span("serve.plan_warm", batch=int(warm.shape[0])):
                engine.infer(warm)
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

    def describe(self) -> dict:
        """JSON-safe session summary (surfaced by ``/healthz``)."""
        return {
            "model": self.key.model,
            "scheme": self.key.scheme,
            "threshold": self.key.threshold,
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


class SessionManager:
    """Process-wide cache of :class:`ModelSession` objects.

    ``get_or_create`` is safe under concurrent first requests: a per-key
    build lock ensures exactly one thread pays the build while others for
    the same key wait, and builds for *different* keys proceed in
    parallel.
    """

    def __init__(self):
        self._sessions: dict[SessionKey, ModelSession] = {}
        self._registry_lock = threading.Lock()
        self._build_locks: dict[SessionKey, threading.Lock] = {}
        self.builds = 0  #: number of actual (non-cached) builds performed
        self.hits = 0    #: number of cache hits served

    def _lock_for(self, key: SessionKey) -> threading.Lock:
        with self._registry_lock:
            if key not in self._build_locks:
                self._build_locks[key] = threading.Lock()
            return self._build_locks[key]

    def get_or_create(self, config: ServeConfig) -> ModelSession:
        key = SessionKey.from_config(config)
        with self._registry_lock:
            session = self._sessions.get(key)
            if session is not None:
                self.hits += 1
                return session
        with self._lock_for(key):
            # Double-checked: another thread may have built while we waited.
            with self._registry_lock:
                session = self._sessions.get(key)
                if session is not None:
                    self.hits += 1
                    return session
            session = ModelSession(config)
            with self._registry_lock:
                self._sessions[key] = session
                self.builds += 1
            return session

    def get(self, key: SessionKey) -> ModelSession | None:
        with self._registry_lock:
            return self._sessions.get(key)

    def __len__(self) -> int:
        with self._registry_lock:
            return len(self._sessions)

    def keys(self) -> list[SessionKey]:
        with self._registry_lock:
            return list(self._sessions)

    def clear(self) -> None:
        with self._registry_lock:
            self._sessions.clear()


__all__ = ["SessionKey", "SessionStats", "ModelSession", "SessionManager"]

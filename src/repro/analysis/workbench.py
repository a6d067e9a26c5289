"""Shared experiment workbench.

Every benchmark/figure needs the same expensive ingredients: synthetic
datasets, trained models, and per-model ODQ thresholds.  The
:class:`Workbench` builds them once (deterministically, from
``repro.config.ExperimentScale``) and memoises them for the process
lifetime, so the per-figure benches stay cheap and mutually consistent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.config import DEFAULT_SEED, ExperimentScale, scale_from_env
from repro.core.odq_qat import finetune_odq
from repro.core.threshold import adaptive_threshold_search
from repro.data.synthetic import (
    Dataset,
    synthetic_cifar10,
    synthetic_cifar100,
    synthetic_mnist,
)
from repro.models.registry import build_model
from repro.nn.layers import Module
from repro.nn.optim import SGD, CosineLR
from repro.nn.trainer import Trainer, TrainHistory


@dataclass
class TrainedModel:
    """A trained model plus its provenance."""

    model: Module
    history: TrainHistory
    model_name: str
    dataset_name: str

    @property
    def fp_accuracy(self) -> float:
        return self.history.final_test_acc


@dataclass
class Workbench:
    """Caches datasets, trained models, and ODQ thresholds per experiment run."""

    scale: ExperimentScale = field(default_factory=scale_from_env)
    seed: int = DEFAULT_SEED
    _datasets: dict[str, Dataset] = field(default_factory=dict, repr=False)
    _models: dict[tuple[str, str], TrainedModel] = field(default_factory=dict, repr=False)
    _thresholds: dict[tuple[str, str], float] = field(default_factory=dict, repr=False)
    _odq_models: dict[tuple[str, str], Module] = field(default_factory=dict, repr=False)

    # -- datasets -----------------------------------------------------------

    def dataset(self, name: str) -> Dataset:
        name = name.lower()
        if name not in self._datasets:
            kwargs = dict(
                image_size=self.scale.image_size,
                num_train=self.scale.num_train,
                num_test=self.scale.num_test,
                noise=self.scale.noise,
                max_shift=self.scale.max_shift,
                seed=self.seed,
            )
            if name == "cifar10":
                self._datasets[name] = synthetic_cifar10(**kwargs)
            elif name == "cifar100":
                # 100 classes need enough samples per class to be learnable
                # at all; guarantee ~20 train / 2 test images per class.
                kwargs["num_train"] = max(kwargs["num_train"], 2000)
                kwargs["num_test"] = max(kwargs["num_test"], 200)
                self._datasets[name] = synthetic_cifar100(**kwargs)
            elif name == "mnist":
                kwargs.pop("image_size")
                kwargs.pop("noise")
                self._datasets[name] = synthetic_mnist(**kwargs)
            else:
                raise KeyError(f"unknown dataset {name!r}")
        return self._datasets[name]

    # -- trained models ---------------------------------------------------------

    def trained_model(self, model_name: str, dataset_name: str = "cifar10") -> TrainedModel:
        key = (model_name, dataset_name)
        if key not in self._models:
            ds = self.dataset(dataset_name)
            rng = np.random.default_rng(self.seed + hash(key) % 10_000)
            in_channels = ds.image_shape[0]
            model = build_model(
                model_name,
                num_classes=ds.num_classes,
                scale=self.scale.width_multiplier,
                rng=rng,
                in_channels=in_channels,
                image_size=ds.image_shape[1],
            )
            # Per-model recipes: very deep narrow nets (ResNet-56) need a
            # gentler LR and a longer schedule to converge on the NumPy
            # substrate; CIFAR-100 runs get two extra epochs.
            lr, epochs = 0.05, self.scale.epochs
            if model_name == "resnet56":
                lr, epochs = 0.02, 2 * self.scale.epochs
            if dataset_name == "cifar100":
                epochs += 2
            optimizer = SGD(model.parameters(), lr=lr, momentum=0.9, weight_decay=1e-4)
            scheduler = CosineLR(optimizer, t_max=epochs)
            trainer = Trainer(
                model,
                optimizer,
                scheduler,
                batch_size=self.scale.batch_size,
                rng=np.random.default_rng(self.seed),
            )
            history = trainer.fit(
                ds.x_train, ds.y_train, ds.x_test, ds.y_test, epochs=epochs
            )
            self._models[key] = TrainedModel(model, history, model_name, dataset_name)
        return self._models[key]

    # -- thresholds and ODQ-retrained models ---------------------------------------

    def _finetune_kwargs(self, dataset_name: str) -> dict:
        ds = self.dataset(dataset_name)
        return {
            "x_train": ds.x_train,
            "y_train": ds.y_train,
            "epochs": max(2, self.scale.epochs // 2),
            "lr": 0.005,
            "batch_size": self.scale.batch_size,
            "rng": np.random.default_rng(self.seed + 1),
        }

    def odq_threshold(
        self,
        model_name: str,
        dataset_name: str = "cifar10",
        max_accuracy_drop: float = 0.05,
        max_halvings: int = 4,
    ) -> float:
        """Per-model ODQ threshold via the paper's adaptive search (Table 3).

        Each candidate threshold retrains a scratch copy of the model
        (the paper's "weights are retrained after introducing the
        threshold" step) before evaluating accuracy.
        """
        key = (model_name, dataset_name)
        if key not in self._thresholds:
            tm = self.trained_model(model_name, dataset_name)
            ds = self.dataset(dataset_name)
            result = adaptive_threshold_search(
                tm.model,
                self.calibration_batch(dataset_name),
                ds.x_test,
                ds.y_test,
                max_accuracy_drop=max_accuracy_drop,
                max_halvings=max_halvings,
                finetune=self._finetune_kwargs(dataset_name),
            )
            self._thresholds[key] = result.threshold
        return self._thresholds[key]

    def odq_model(self, model_name: str, dataset_name: str = "cifar10") -> Module:
        """The ODQ-retrained twin of a trained model (paper Section 3).

        Used for every ODQ evaluation; the plain ``trained_model`` serves
        the FP32/static/DRQ rows, mirroring the paper's per-scheme
        training setups.
        """
        key = (model_name, dataset_name)
        if key not in self._odq_models:
            import copy

            theta = self.odq_threshold(model_name, dataset_name)
            base = self.trained_model(model_name, dataset_name).model
            twin = copy.deepcopy(base)
            finetune_odq(twin, theta, **self._finetune_kwargs(dataset_name))
            twin.eval()
            self._odq_models[key] = twin
        return self._odq_models[key]

    def calibration_batch(self, dataset_name: str = "cifar10") -> np.ndarray:
        ds = self.dataset(dataset_name)
        return ds.x_train[: min(len(ds.x_train), 4 * self.scale.batch_size)]


_GLOBAL_WORKBENCH: Workbench | None = None
_GLOBAL_WORKBENCH_LOCK = threading.Lock()


def global_workbench() -> Workbench:
    """Process-wide workbench shared by benchmarks and examples."""
    global _GLOBAL_WORKBENCH
    with _GLOBAL_WORKBENCH_LOCK:
        if _GLOBAL_WORKBENCH is None:
            _GLOBAL_WORKBENCH = Workbench()
        return _GLOBAL_WORKBENCH


__all__ = ["Workbench", "TrainedModel", "scale_from_env", "global_workbench"]

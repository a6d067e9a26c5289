"""Synthetic datasets: determinism, learnability signal, and shapes."""

import hashlib

import numpy as np
import pytest

from repro.data import (
    Dataset,
    make_synthetic_dataset,
    synthetic_cifar10,
    synthetic_cifar100,
    synthetic_mnist,
)
from repro.data.synthetic import _gaussian_blur


class TestShapes:
    def test_cifar10_defaults(self):
        ds = synthetic_cifar10(num_train=32, num_test=16)
        assert ds.x_train.shape == (32, 3, 32, 32)
        assert ds.num_classes == 10
        assert ds.y_train.max() < 10

    def test_cifar100_classes(self):
        ds = synthetic_cifar100(num_train=256, num_test=16)
        assert ds.num_classes == 100
        assert len(np.unique(ds.y_train)) > 50

    def test_mnist_geometry(self):
        ds = synthetic_mnist(num_train=16, num_test=8)
        assert ds.x_train.shape[1:] == (1, 28, 28)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((4, 1, 2, 2)), np.zeros(3), np.zeros((2, 1, 2, 2)), np.zeros(2), 2)


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = synthetic_cifar10(num_train=16, num_test=8, seed=42)
        b = synthetic_cifar10(num_train=16, num_test=8, seed=42)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_test, b.y_test)

    def test_different_seed_different_data(self):
        a = synthetic_cifar10(num_train=16, num_test=8, seed=1)
        b = synthetic_cifar10(num_train=16, num_test=8, seed=2)
        assert not np.allclose(a.x_train, b.x_train)


class TestLearnability:
    def test_class_structure_exists(self):
        """Images of the same class must be closer than across classes —
        the signal a classifier learns."""
        ds = make_synthetic_dataset(num_classes=4, image_size=16, num_train=200,
                                    num_test=10, noise=0.15, seed=3)
        means = np.stack([
            ds.x_train[ds.y_train == c].mean(axis=0) for c in range(4)
        ])
        across = np.sqrt(((means[0] - means[1]) ** 2).sum())
        assert across > 0.1  # prototypes are distinct

    def test_nearest_prototype_beats_chance(self):
        ds = make_synthetic_dataset(num_classes=10, image_size=16, num_train=400,
                                    num_test=100, noise=0.2, seed=3)
        protos = np.stack([ds.x_train[ds.y_train == c].mean(axis=0) for c in range(10)])
        d = ((ds.x_test[:, None] - protos[None]) ** 2).sum(axis=(2, 3, 4))
        acc = (d.argmin(axis=1) == ds.y_test).mean()
        assert acc > 0.3  # far above the 10% chance level

    def test_values_bounded(self):
        ds = synthetic_cifar10(num_train=16, num_test=8)
        assert ds.x_train.min() >= 0.0 and ds.x_train.max() <= 1.2


class TestFingerprint:
    """The generated bytes are pinned: any change to the prototype blur,
    the augmentation or the RNG call order shows up here."""

    CASES = {
        "mnist-28x1": (
            dict(num_classes=10, image_size=28, channels=1, noise=0.2),
            "6500daa8991c77687d1b022e385c56215fee2cbbc2f1022d31e96b9fbfd7a97c",
        ),
        "cifar10-32x3": (
            dict(num_classes=10, image_size=32, channels=3),
            "daaa1241e9a193ea4838a9ba57701280b896b14429d7c0666cd6bafd91b5c4b6",
        ),
        "cifar10-16x3": (
            dict(num_classes=10, image_size=16, channels=3, noise=0.12, max_shift=1),
            "6c601da7988e747c9df73f88239a0300ed218458c1ba48c93133ac72409ef7a5",
        ),
        "cifar100-32x3": (
            dict(num_classes=100, image_size=32, channels=3),
            "f7c484a586673559988223a5ea6515906e27f52b36cd9389dfdeddc54731f7f7",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dataset_bytes(self, case):
        kwargs, want = self.CASES[case]
        ds = make_synthetic_dataset(num_train=48, num_test=16, seed=7, **kwargs)
        got = hashlib.sha256(ds.x_train.tobytes() + ds.x_test.tobytes()).hexdigest()
        assert got == want


class TestGaussianBlur:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_equals_scipy_gaussian_filter(self, seed, channels):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(seed)
        for size in range(8, 65, 4):
            field = rng.normal(size=(channels, size, size))
            want = ndimage.gaussian_filter(field, sigma=(0, size / 8, size / 8))
            got = _gaussian_blur(field, size / 8)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

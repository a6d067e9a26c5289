"""Synthetic image-classification datasets (CIFAR/MNIST stand-ins).

The paper evaluates on CIFAR-10/100 and illustrates with MNIST; neither is
available offline, so we generate *learnable, structured* synthetic images
(DESIGN.md section 2).  Each class owns a deterministic prototype built
from band-limited Gaussian random fields plus a class-specific geometric
primitive; samples are augmented (shift, flip, contrast) and noised.  The
task difficulty is controlled by the noise level so quantization-induced
accuracy gaps are visible — which is what the paper's Figure 18 measures.

All generation is vectorized NumPy and fully deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import new_rng


@dataclass
class Dataset:
    """An in-memory split dataset with NCHW float images in roughly [0, 1]."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int
    name: str = "synthetic"

    def __post_init__(self):
        if len(self.x_train) != len(self.y_train):
            raise ValueError("train images/labels length mismatch")
        if len(self.x_test) != len(self.y_test):
            raise ValueError("test images/labels length mismatch")

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.x_train.shape[1:])


def _gaussian_blur(field: np.ndarray, sigma: float) -> np.ndarray:
    """Blur each channel plane of a (C, H, W) field with a Gaussian.

    Bit-identical to ``scipy.ndimage.gaussian_filter(field, sigma=(0,
    sigma, sigma))`` in float64: the same kernel (truncated at 4 sigma,
    normalised, reversed), reflect padding, H filtered before W, and each
    output summed in the order of scipy's symmetric ``correlate1d`` loop
    (centre tap first, then the pairs of taps from the outermost inwards).
    """
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    # The centre tap is exp(0) == 1, so the guard never changes the sum.
    w = (phi / max(phi.sum(), 1.0))[::-1]
    for axis in (1, 2):
        a = np.moveaxis(field, axis, -1)
        n = a.shape[-1]
        p = np.pad(a, [(0, 0), (0, 0), (r, r)], mode="symmetric")
        out = p[..., r : r + n] * w[r]
        for j in range(r, 0, -1):
            out += (p[..., r - j : r - j + n] + p[..., r + j : r + j + n]) * w[r - j]
        field = np.moveaxis(out, -1, axis)
    return field


def _class_prototypes(
    num_classes: int, channels: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """One smooth prototype image per class, shape (C, channels, H, W).

    Prototypes combine a low-frequency random field (global colour/texture
    identity) and a class-indexed oriented stripe pattern (local edges for
    conv filters to latch onto).
    """
    protos = np.empty((num_classes, channels, size, size))
    yy, xx = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    for c in range(num_classes):
        field = rng.normal(size=(channels, size, size))
        field = _gaussian_blur(field, size / 8)
        field = (field - field.min()) / max(np.ptp(field), 1e-9)
        angle = np.pi * c / num_classes
        freq = 2.0 + 3.0 * ((c * 7919) % num_classes) / max(num_classes, 1)
        stripes = 0.5 + 0.5 * np.sin(
            2 * np.pi * freq * (np.cos(angle) * xx + np.sin(angle) * yy)
        )
        protos[c] = 0.6 * field + 0.4 * stripes[None]
    return protos


def _augment(
    images: np.ndarray, rng: np.random.Generator, max_shift: int
) -> np.ndarray:
    """Random shift + horizontal flip + per-image contrast jitter."""
    n = len(images)
    out = images
    if max_shift > 0:
        shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
        out = np.stack(
            [np.roll(img, tuple(s), axis=(1, 2)) for img, s in zip(out, shifts)]
        )
    flips = rng.random(n) < 0.5
    out[flips] = out[flips, :, :, ::-1]
    contrast = rng.uniform(0.85, 1.15, size=(n, 1, 1, 1))
    return out * contrast


def make_synthetic_dataset(
    num_classes: int = 10,
    image_size: int = 32,
    channels: int = 3,
    num_train: int = 2048,
    num_test: int = 512,
    noise: float = 0.25,
    max_shift: int = 2,
    seed: int | np.random.Generator | None = None,
    name: str | None = None,
) -> Dataset:
    """Generate a class-conditional synthetic image dataset.

    ``noise`` is the standard deviation of the additive Gaussian noise as a
    fraction of the prototype dynamic range; around 0.25 the task is
    non-trivial but learnable by the scaled paper networks in a few epochs.
    """
    rng = new_rng(seed)
    protos = _class_prototypes(num_classes, channels, image_size, rng)

    def make_split(n: int) -> tuple[np.ndarray, np.ndarray]:
        y = rng.integers(0, num_classes, size=n)
        x = protos[y].copy()
        x = _augment(x, rng, max_shift)
        x += rng.normal(0.0, noise, size=x.shape)
        return np.clip(x, 0.0, 1.2).astype(np.float64), y.astype(np.int64)

    x_train, y_train = make_split(num_train)
    x_test, y_test = make_split(num_test)
    return Dataset(
        x_train,
        y_train,
        x_test,
        y_test,
        num_classes,
        name=name or f"synthetic{num_classes}",
    )


def synthetic_cifar10(**kwargs) -> Dataset:
    """CIFAR-10 stand-in: 10 classes, 32x32x3 (see DESIGN.md substitutions)."""
    kwargs.setdefault("num_classes", 10)
    kwargs.setdefault("name", "cifar10-syn")
    return make_synthetic_dataset(**kwargs)


def synthetic_cifar100(**kwargs) -> Dataset:
    """CIFAR-100 stand-in: 100 classes (harder task, larger accuracy gaps)."""
    kwargs.setdefault("num_classes", 100)
    kwargs.setdefault("name", "cifar100-syn")
    return make_synthetic_dataset(**kwargs)


def synthetic_mnist(**kwargs) -> Dataset:
    """MNIST stand-in: 10 classes, 28x28x1, used by the Fig.-1 example."""
    kwargs.setdefault("num_classes", 10)
    kwargs.setdefault("image_size", 28)
    kwargs.setdefault("channels", 1)
    kwargs.setdefault("noise", 0.2)
    kwargs.setdefault("name", "mnist-syn")
    return make_synthetic_dataset(**kwargs)


__all__ = [
    "Dataset",
    "make_synthetic_dataset",
    "synthetic_cifar10",
    "synthetic_cifar100",
    "synthetic_mnist",
]

"""Module system: stateful layers composed over the autograd substrate.

The API deliberately mirrors a small subset of ``torch.nn`` so the model
definitions in ``repro.models`` read like their PyTorch originals, which
makes the reproduction auditable against the paper's described setups.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.utils.rng import new_rng


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`-like tensors and child modules as
    attributes; registration is automatic via ``__setattr__`` inspection in
    :meth:`named_parameters` / :meth:`named_modules` (no explicit registry
    to keep the implementation small).
    """

    def __init__(self):
        self.training = True

    # -- traversal -----------------------------------------------------------

    def children(self) -> Iterator["Module"]:
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, value in self.__dict__.items():
            items: list[tuple[str, Module]] = []
            if isinstance(value, Module):
                items.append((name, value))
            elif isinstance(value, (list, tuple)):
                items.extend(
                    (f"{name}.{i}", item)
                    for i, item in enumerate(value)
                    if isinstance(item, Module)
                )
            for child_name, child in items:
                full = f"{prefix}.{child_name}" if prefix else child_name
                yield from child.named_modules(full)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for mod_name, module in self.named_modules(prefix):
            for name, value in module.__dict__.items():
                if isinstance(value, Tensor) and value.requires_grad:
                    yield (f"{mod_name}.{name}" if mod_name else name), value

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def modules_of_type(self, cls: type) -> list["Module"]:
        return [m for _, m in self.named_modules() if isinstance(m, cls)]

    # -- train / eval ----------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        # Walks children() rather than named_modules(): the engine calls
        # eval() on every inference, and the names are not needed here.
        self.training = mode
        for child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- (de)serialisation -------------------------------------------------------

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, p in self.named_parameters():
            state[name] = p.data.copy()
        for mod_name, module in self.named_modules():
            for name, value in module.__dict__.items():
                if isinstance(value, np.ndarray):  # buffers (BN running stats)
                    key = f"{mod_name}.{name}" if mod_name else name
                    state[key] = value.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        params = dict(self.named_parameters())
        buffers: dict[str, tuple[Module, str]] = {}
        for mod_name, module in self.named_modules():
            for name, value in module.__dict__.items():
                if isinstance(value, np.ndarray):
                    key = f"{mod_name}.{name}" if mod_name else name
                    buffers[key] = (module, name)
        for key, value in state.items():
            if key in params:
                params[key].data = np.asarray(value).copy()
            elif key in buffers:
                module, name = buffers[key]
                setattr(module, name, np.asarray(value).copy())
            else:
                raise KeyError(f"unexpected state key: {key}")

    # -- call ----------------------------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.flatten(x)


class Sequential(Module):
    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def append(self, module: Module) -> None:
        self.layers.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class Conv2d(Module):
    """2-D convolution layer with Kaiming-initialised weights."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = new_rng(rng)
        self.weight = Tensor(
            init.kaiming_normal(
                (out_channels, in_channels, kernel_size, kernel_size), rng
            ),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_channels), requires_grad=True) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    @property
    def macs_per_output(self) -> int:
        """MAC operations needed for one output feature of this layer."""
        return self.in_channels * self.kernel_size * self.kernel_size


class Linear(Module):
    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = new_rng(rng)
        self.weight = Tensor(
            init.kaiming_normal((out_features, in_features), rng), requires_grad=True
        )
        self.bias = (
            Tensor(np.zeros(out_features), requires_grad=True) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """Batch normalization over NCHW, built from autograd primitives.

    Running statistics use the standard exponential moving average so that
    ``eval()`` inference is deterministic — a requirement for the
    quantized-inference pipelines, which fold BN into per-channel affine
    transforms at calibration time.

    Eval mode under :func:`~repro.nn.tensor.no_grad` runs
    :meth:`eval_kernel` on raw arrays instead of taping ~10 Tensor ops.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(num_features), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features), requires_grad=True)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        #: ``(sources, constants)`` of :meth:`eval_kernel` (a tuple, so
        #: ``state_dict`` does not take the constants for buffers).
        self._eval_consts: tuple | None = None

    def eval_kernel(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode forward of ``x`` on raw arrays.

        ``((x + neg_mean4) * inv_std4) * gamma4 + beta4`` is the taped
        forward's expression tree, so the result is ``==`` to it.  The
        per-channel constants are computed once and recomputed whenever
        ``running_mean``, ``running_var``, ``gamma.data``, ``beta.data``
        or ``eps`` is no longer the same object, so rebinding any of
        them is seen; an in-place write to one of those arrays is not
        (rule PLN504 forbids it).
        """
        sources = (self.running_mean, self.running_var, self.gamma.data,
                   self.beta.data, self.eps)
        cached = self._eval_consts
        if cached is None or any(a is not b for a, b in zip(cached[0], sources)):
            # The taped eval forward's own ops, so the constants match it.
            mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
            cached = (sources, (
                (-mean).data,
                ((var + self.eps) ** -0.5).data,
                self.gamma.data.reshape(1, -1, 1, 1),
                self.beta.data.reshape(1, -1, 1, 1),
            ))
            self._eval_consts = cached
        neg_mean4, inv_std4, gamma4, beta4 = cached[1]
        out = x + neg_mean4
        if out.dtype != np.float64:
            # float32 constants: keep every out-of-place promotion.
            return (out * inv_std4) * gamma4 + beta4
        # In place on the float64 temporary: the same ops in the same
        # order, each rounding to float64 as the out-of-place one does.
        out *= inv_std4
        out *= gamma4
        out += beta4
        return out

    def forward(self, x: Tensor) -> Tensor:
        if not self.training and not is_grad_enabled():
            return Tensor(self.eval_kernel(x.data))
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = ((x - mean) ** 2).mean(axis=(0, 2, 3), keepdims=True)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean
                + self.momentum * mean.data.reshape(-1)
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var
                + self.momentum * var.data.reshape(-1)
            )
        else:
            mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
        inv_std = (var + self.eps) ** -0.5
        xhat = (x - mean) * inv_std
        gamma = self.gamma.reshape(1, -1, 1, 1)
        beta = self.beta.reshape(1, -1, 1, 1)
        return xhat * gamma + beta


class MaxPool2d(Module):
    """Max pool; becomes identity when the input is smaller than the window
    (lets paper topologies run unchanged on scaled-down test images)."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        if min(x.shape[2], x.shape[3]) < self.kernel_size:
            return x
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    """Average pool; identity on inputs smaller than the window (see MaxPool2d)."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        if min(x.shape[2], x.shape[3]) < self.kernel_size:
            return x
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        self.p = p
        self.rng = new_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, self.training)


def swap_modules(root: Module, transform) -> Module:
    """Recursively replace child modules of ``root``.

    ``transform(module)`` returns either the same object (recurse into it)
    or a replacement (installed, not recursed).  Used to install
    fake-quant twins (``repro.quant.dorefa``) and instrumented inference
    executors (``repro.core.pipeline``).
    """
    for name, value in list(root.__dict__.items()):
        if isinstance(value, Module):
            replacement = transform(value)
            if replacement is not value:
                setattr(root, name, replacement)
            else:
                swap_modules(value, transform)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, Module):
                    replacement = transform(item)
                    if replacement is not item:
                        value[i] = replacement
                    else:
                        swap_modules(item, transform)
    return root


__all__ = [
    "Module",
    "Identity",
    "ReLU",
    "Flatten",
    "Sequential",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Dropout",
    "swap_modules",
]

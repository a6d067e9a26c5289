"""Reverse-mode automatic differentiation over NumPy arrays.

This is the substrate that replaces PyTorch in the reproduction (see
DESIGN.md section 2).  It is a tape-based autograd in the micrograd style:
every operation records a backward closure plus its parents, and
``Tensor.backward`` walks the tape in reverse topological order.

Design constraints, in order:

1. *Correctness* — every primitive has a gradient check in
   ``tests/nn/test_autograd.py`` against central finite differences.
2. *Vectorization* — backward passes are expressed as whole-array NumPy
   expressions; the only Python loops in the package's hot paths are over
   kernel offsets (bounded by K*K), per the HPC guide's vectorization rule.
3. *Small surface* — only the ops the CNN models need are implemented;
   composite ops (batch norm, softmax, …) are built from these primitives
   so they inherit correct gradients.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

import numpy as np

Array = np.ndarray

#: Per-thread grad mode: each serving worker thread sets its own.
_grad_mode = threading.local()


def is_grad_enabled() -> bool:
    """Whether ops on this thread record the autograd tape."""
    return getattr(_grad_mode, "enabled", True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Run the block without recording the tape (on this thread only).

    Inside, every op returns an untaped :class:`Tensor`
    (``requires_grad=False``, no parents, no backward closure), so
    inference pays for the arithmetic alone.  Nesting and exceptions
    restore the previous mode.
    """
    prev = is_grad_enabled()
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _pgemm(a: Array, b: Array) -> Array:
    """Route 2-D products through the one GEMM entry point (:mod:`repro.core.gemm`).

    Imported lazily because ``repro.core``'s package init imports
    ``repro.nn`` modules; a module-level import here would cycle.  After
    the first call this is one ``sys.modules`` lookup — negligible next
    to the GEMM itself, and ``pgemm`` is ``a @ b``.
    """
    from repro.core.gemm import pgemm

    return pgemm(a, b)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes.

    NumPy broadcasting prepends singleton axes and stretches size-1 axes;
    the adjoint of a broadcast is therefore a sum over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched singleton axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with an autograd tape.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Stored as ``float64`` by default;
        float32 inputs are kept as-is.
    requires_grad:
        Whether gradients should flow into this tensor.  Gradients are
        accumulated in ``.grad`` (same shape as ``.data``).
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: Array = arr
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[Array], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._op: str = ""

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @classmethod
    def from_op(
        cls,
        data: Array,
        parents: Iterable["Tensor"],
        backward: Callable[[Array], None],
        op: str = "",
    ) -> "Tensor":
        """Create a tensor produced by an op, wiring the tape if needed.

        Under :func:`no_grad` the result is never taped.
        """
        if not is_grad_enabled():
            return cls(data)
        parents = tuple(parents)
        out = cls(data, requires_grad=any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._backward = backward
            out._parents = parents
            out._op = op
        return out

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag}, op={self._op!r})"

    def numpy(self) -> Array:
        """The underlying array (not a copy; treat as read-only)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    # -- gradient accumulation ---------------------------------------------------

    def _accumulate(self, grad: Array) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Array | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)

        # Iterative topological sort (avoids recursion limits on deep nets).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic primitives ---------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(g: Array) -> None:
            self._accumulate(g)
            other._accumulate(g)

        return Tensor.from_op(self.data + other.data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: Array) -> None:
            self._accumulate(-g)

        return Tensor.from_op(-self.data, (self,), backward, "neg")

    def __sub__(self, other) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(g: Array) -> None:
            self._accumulate(g * other.data)
            other._accumulate(g * self.data)

        return Tensor.from_op(self.data * other.data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(g: Array) -> None:
            self._accumulate(g / other.data)
            other._accumulate(-g * self.data / (other.data**2))

        return Tensor.from_op(self.data / other.data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return self._wrap(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(g: Array) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor.from_op(self.data**exponent, (self,), backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        other = self._wrap(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ValueError("matmul supports 2-D operands only")

        def backward(g: Array) -> None:
            self._accumulate(_pgemm(np.asarray(g), other.data.T))
            other._accumulate(_pgemm(self.data.T, np.asarray(g)))

        return Tensor.from_op(
            _pgemm(self.data, other.data), (self, other), backward, "matmul"
        )

    # -- elementwise nonlinearities ------------------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: Array) -> None:
            self._accumulate(g * mask)

        return Tensor.from_op(self.data * mask, (self,), backward, "relu")

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: Array) -> None:
            self._accumulate(g * out_data)

        return Tensor.from_op(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        def backward(g: Array) -> None:
            self._accumulate(g / self.data)

        return Tensor.from_op(np.log(self.data), (self,), backward, "log")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: Array) -> None:
            self._accumulate(g * (1.0 - out_data**2))

        return Tensor.from_op(out_data, (self,), backward, "tanh")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g: Array) -> None:
            self._accumulate(g * 0.5 / out_data)

        return Tensor.from_op(out_data, (self,), backward, "sqrt")

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(g: Array) -> None:
            self._accumulate(g * sign)

        return Tensor.from_op(np.abs(self.data), (self,), backward, "abs")

    def clip(self, lo: float, hi: float) -> "Tensor":
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(g: Array) -> None:
            self._accumulate(g * mask)

        return Tensor.from_op(np.clip(self.data, lo, hi), (self,), backward, "clip")

    # -- reductions --------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: Array) -> None:
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor.from_op(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=True)
        mask = self.data == out_data  # ties share gradient equally
        counts = mask.sum(axis=axis, keepdims=True)

        def backward(g: Array) -> None:
            g = np.asarray(g)
            if not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(g * mask / counts)

        data = out_data if keepdims else out_data.squeeze(axis=axis)
        return Tensor.from_op(data, (self,), backward, "max")

    # -- shape ops ----------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        in_shape = self.data.shape

        def backward(g: Array) -> None:
            self._accumulate(np.asarray(g).reshape(in_shape))

        return Tensor.from_op(self.data.reshape(shape), (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))

        def backward(g: Array) -> None:
            self._accumulate(np.asarray(g).transpose(inverse))

        return Tensor.from_op(self.data.transpose(axes), (self,), backward, "transpose")

    def __getitem__(self, idx) -> "Tensor":
        def backward(g: Array) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            self._accumulate(full)

        return Tensor.from_op(self.data[idx], (self,), backward, "getitem")

    # -- composition helpers --------------------------------------------------------

    @staticmethod
    def concat(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate along ``axis`` (needed by DenseNet blocks)."""
        tensors = [Tensor._wrap(t) for t in tensors]
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(g: Array) -> None:
            g = np.asarray(g)
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(int(lo), int(hi))
                t._accumulate(g[tuple(sl)])

        data = np.concatenate([t.data for t in tensors], axis=axis)
        return Tensor.from_op(data, tensors, backward, "concat")

    def pad_channels(self, extra: int) -> "Tensor":
        """Zero-pad the channel dim of an NCHW tensor (ResNet option-A shortcut)."""
        if extra == 0:
            return self
        n, c, h, w = self.data.shape
        # What np.pad's constant mode returns, without its Python-level
        # pad-width normalisation.
        out = np.zeros((n, c + extra, h, w), dtype=self.data.dtype)
        out[:, :c] = self.data

        def backward(g: Array) -> None:
            self._accumulate(np.asarray(g)[:, :c])

        return Tensor.from_op(out, (self,), backward, "pad_channels")


__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

"""Compiled inference plans: one-pass layer planning with shape-specialized dispatch.

An :class:`InferencePlan` is compiled once per (engine, input shape/dtype)
by tracing a single inference through the model and binding, per layer,
what the unplanned path re-derives on every call:

* packed weight operands (``PackedConvWeights``) and the 2-D bias,
* im2col geometry (output H/W, row counts) from the observed input shape,
* the GEMM shape, bound via :func:`repro.core.gemm.plan_gemm` into a
  :class:`~repro.core.gemm.GemmDispatch` (each call is
  :func:`repro.core.gemm.pgemm`, i.e. ``a @ b``),
* a shared :class:`~repro.core.gemm.DispatchGroup` as the sparse-row GEMM
  entry point of each run of consecutive sparse-capable conv layers.

A planned conv step is only a binder: it runs the same
:func:`repro.core.odq.odq_conv` kernel as ``ODQConvExecutor.run``, so
the ODQ numerics, record upkeep (masks, per-channel counts, exec-path
census, MACs, phase times) and the ``odq.run`` span are one
implementation, and a traced run times the planned path that serves.

Two plan modes:

``flat``
    The traced leaf calls form a linear chain (verified by array
    *identity*: each step consumed exactly the previous step's output).
    ``run()`` is then a plain loop over numpy step closures — no Tensor
    allocation, no autograd tape wiring, no backward-index precompute
    (max-pool's scatter indices are the single largest non-GEMM cost of
    the unplanned path).
``graph``
    The model's forward has structure a flat tape cannot honor
    (residual adds, concats, repeated modules).  The model walks its own
    Tensor graph under :func:`~repro.nn.tensor.no_grad` (no tape), and
    every instrumented conv routes through its plan step.

Bit-exactness contract
----------------------
Every flat step mirrors the exact numpy expression tree of the Tensor op
it replaces (e.g. ReLU is ``x * (x > 0)``, not ``np.maximum``; global
average pooling is ``sum * (1.0 / count)``, not ``np.mean``; BatchNorm
is the module's own eval kernel), or, for max pooling, selects the same
element the Tensor op's argmax gathers.  So planned output is
bit-identical (``==``) to the unplanned path — pinned by
``tests/core/test_plan.py``.

Staleness
---------
A plan never goes stale silently.  ``valid()`` re-checks, by object
identity, every piece of state a step froze (packed operands, weight and
buffer arrays, exec-path config, instance-level ``run`` monkeypatches);
the engine recompiles on mismatch.  Deliberately *not* frozen: the mask
threshold (``effective_threshold`` is read per call so threshold sweeps
hit the planned path unchanged), the ``ColumnCache`` (built per call
by ``executor._build_cache``, the one place a layer call's cache is
made, on the planned and unplanned paths alike) and BatchNorm's
constants (its eval kernel re-checks their sources itself).
"""

from __future__ import annotations

import numpy as np

from repro.core import gemm
# Unused here since conv steps run repro.core.odq.odq_conv; kept because
# the traced launcher of benchmarks/e2e (launcher.py) wraps
# ``plan.mask_from_magnitude`` by name.  Its ``odq.mask_ms`` therefore
# reads 0 and mask time is counted in ``odq.self_ms``.
from repro.core.masks import mask_from_magnitude  # noqa: F401
from repro.core.odq import ODQConvExecutor, odq_conv
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.tensor import Tensor, no_grad


class PlanStep:
    """One pre-bound operation of a flat plan.  Stateless steps are
    always valid; stateful ones override :meth:`valid`."""

    kind = "?"

    def run(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def valid(self) -> bool:
        return True

    def describe(self) -> dict:
        return {"kind": self.kind}


class PassStep(PlanStep):
    """Identity: eval-mode dropout, Identity modules, and pools whose
    window exceeds the (shape-specialized) input."""

    kind = "pass"

    def __init__(self, reason: str, module=None) -> None:
        self.reason = reason
        self.module = module

    def run(self, x: np.ndarray) -> np.ndarray:
        return x

    def valid(self) -> bool:
        m = self.module
        if isinstance(m, Dropout):
            # Train-mode dropout with p > 0 is no longer an identity.
            return not m.training or m.p <= 0.0
        return True

    def describe(self) -> dict:
        return {"kind": self.kind, "reason": self.reason}


class ReLUStep(PlanStep):
    kind = "relu"

    def run(self, x: np.ndarray) -> np.ndarray:
        return x * (x > 0)


class FlattenStep(PlanStep):
    kind = "flatten"

    def run(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class MaxPoolStep(PlanStep):
    """``F.max_pool2d`` forward only — skips the backward scatter-index
    precompute (divmod + 4 index grids + zeros) the Tensor op pays, and
    the copy of every window the Tensor op's ``argmax`` needs."""

    kind = "maxpool"

    def __init__(self, module: MaxPool2d, in_shape: tuple) -> None:
        self.module = module
        self.kernel = module.kernel_size
        self.stride = module.stride
        _, _, h, w = in_shape
        self.oh = (h - self.kernel) // self.stride + 1
        self.ow = (w - self.kernel) // self.stride + 1

    def run(self, x: np.ndarray) -> np.ndarray:
        # The Tensor op gathers each window's first argmax.  Visiting the
        # window offsets in the same row-major order and taking a
        # candidate only when it beats the running best (strictly
        # greater, or a NaN over a non-NaN) picks the same element:
        # ties, including -0.0 vs 0.0, keep the earlier one, and the
        # first NaN stays.
        k, s = self.kernel, self.stride
        hs, ws = s * (self.oh - 1) + 1, s * (self.ow - 1) + 1
        best = x[:, :, :hs:s, :ws:s].copy()
        for i in range(k):
            for j in range(k):
                if i or j:
                    v = x[:, :, i:i + hs:s, j:j + ws:s]
                    np.copyto(best, v, where=~((v <= best) | (best != best)))
        return best

    def valid(self) -> bool:
        return (
            self.module.kernel_size == self.kernel
            and self.module.stride == self.stride
        )

    def describe(self) -> dict:
        return {"kind": self.kind, "kernel": self.kernel, "stride": self.stride}


class AvgPoolStep(PlanStep):
    kind = "avgpool"

    def __init__(self, module: AvgPool2d, in_shape: tuple) -> None:
        self.module = module
        self.kernel = module.kernel_size
        self.stride = module.stride
        _, _, h, w = in_shape
        self.oh = (h - self.kernel) // self.stride + 1
        self.ow = (w - self.kernel) // self.stride + 1

    def run(self, x: np.ndarray) -> np.ndarray:
        n, c = x.shape[0], x.shape[1]
        k, s = self.kernel, self.stride
        sn, sc, sh, sw = x.strides
        patches = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, self.oh, self.ow, k, k),
            strides=(sn, sc, sh * s, sw * s, sh, sw),
            writeable=False,
        )
        return patches.mean(axis=(-1, -2))

    def valid(self) -> bool:
        return (
            self.module.kernel_size == self.kernel
            and self.module.stride == self.stride
        )

    def describe(self) -> dict:
        return {"kind": self.kind, "kernel": self.kernel, "stride": self.stride}


class GlobalAvgPoolStep(PlanStep):
    kind = "gap"

    def __init__(self, in_shape: tuple) -> None:
        _, _, h, w = in_shape
        # Tensor.mean computes sum * (1.0 / count); mirror that exactly
        # (multiply by the reciprocal, not np.mean).
        self.inv = 1.0 / (h * w)

    def run(self, x: np.ndarray) -> np.ndarray:
        return x.sum(axis=(2, 3)) * self.inv


class LinearStep(PlanStep):
    """``F.linear`` with the GEMM shape bound by :func:`gemm.plan_gemm`."""

    kind = "linear"

    def __init__(self, module: Linear, in_shape: tuple) -> None:
        self.module = module
        self._w_src = module.weight.data
        self._b_src = None if module.bias is None else module.bias.data
        m_rows, k = in_shape
        n = module.out_features
        self.dispatch = gemm.plan_gemm(m_rows, k, n, self._w_src.dtype)

    def run(self, x: np.ndarray) -> np.ndarray:
        out = self.dispatch.run(x, self.module.weight.data.T)
        if self._b_src is not None:
            out = out + self._b_src
        return out

    def valid(self) -> bool:
        m = self.module
        if m.weight.data is not self._w_src:
            return False
        if self._b_src is None:
            return m.bias is None
        return m.bias is not None and m.bias.data is self._b_src

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "shape": [self.dispatch.m, self.dispatch.k, self.dispatch.n],
        }


class BatchNormStep(PlanStep):
    """Eval-mode BatchNorm2d: the module's own
    :meth:`~repro.nn.layers.BatchNorm2d.eval_kernel`, which keeps its
    constants fresh by identity."""

    kind = "batchnorm"

    def __init__(self, module: BatchNorm2d) -> None:
        self.module = module

    def run(self, x: np.ndarray) -> np.ndarray:
        return self.module.eval_kernel(x)

    def valid(self) -> bool:
        return not self.module.training


class PlannedConvStep(PlanStep):
    """One instrumented conv bound to the plan's frozen operands.

    ``fast=True`` (an unpatched, frozen :class:`ODQConvExecutor`) runs the
    same :func:`~repro.core.odq.odq_conv` kernel as ``executor.run``, with
    the packed operands and 2-D bias frozen here, one
    :class:`~repro.core.gemm.GemmDispatch` for the predictor and dense
    GEMMs (both run one image at a time, ``(OH*OW, ckk) @ (ckk, c_out)``),
    and the sparse gathered-row GEMM issued through the run's shared
    :class:`~repro.core.gemm.DispatchGroup`.  Otherwise (non-ODQ scheme,
    subclass, or an instance-level ``run`` monkeypatch) the step calls
    ``executor.run`` — still profiting from the flat tape around it.
    """

    kind = "conv"

    def __init__(self, ex, in_shape: tuple) -> None:
        self.ex = ex
        self.fast = (
            type(ex) is ODQConvExecutor
            and ex.frozen
            and "run" not in ex.__dict__
        )
        self.sparse_group: gemm.DispatchGroup | None = None
        self.in_shape = tuple(in_shape)
        if not self.fast:
            return
        n, _, h, w = in_shape
        oh, ow = ex.info.output_hw(h, w)
        self.rows = n * oh * ow
        self.packed = ex._packed
        self.bias2d = ex._bias2d()
        self._bias_src = None if ex.conv.bias is None else ex.conv.bias.data
        self.path_mode = ex.exec_path
        self.crossover = ex.sparse_crossover
        ckk, c_out = self.packed.wmat_full.shape
        self.dispatch = gemm.plan_gemm(
            oh * ow, ckk, c_out, self.packed.wmat_full.dtype
        )

    def valid(self) -> bool:
        ex = self.ex
        if not self.fast:
            # A delegating step freezes no executor state; delegation
            # stays correct even if the executor later qualifies for the
            # fast path (it would just be slower until a recompile).
            return True
        if not (ex.frozen and ex._packed is self.packed):
            return False
        if "run" in ex.__dict__:
            return False
        if ex.exec_path != self.path_mode or ex.sparse_crossover != self.crossover:
            return False
        if self._bias_src is None:
            return ex.conv.bias is None
        return ex.conv.bias is not None and ex.conv.bias.data is self._bias_src

    def run(self, x: np.ndarray) -> np.ndarray:
        ex = self.ex
        if not self.fast:
            return ex.run(x)
        group = self.sparse_group
        # The threshold is read per call (not frozen) so sweeps that
        # mutate executor thresholds hit the planned path unchanged.
        return odq_conv(
            x, ex._build_cache, self.packed, ex.qp_w.scale, self.bias2d,
            ex.effective_threshold, self.path_mode, self.crossover, ex=ex,
            gemm=self.dispatch.run,
            gemm_rows=None if group is None else group.gemm,
        ).out

    def describe(self) -> dict:
        d = {"kind": self.kind, "layer": self.ex.info.name, "fast": self.fast}
        if self.fast:
            auto = self.path_mode == "auto"
            d.update(
                path=self.path_mode,
                rows=self.rows,
                row_limit=self.crossover * self.rows if auto else None,
                sparse_batched=self.sparse_group is not None,
            )
        return d


_LEAF_STEP_TYPES = (
    Identity, ReLU, Flatten, Linear, BatchNorm2d,
    MaxPool2d, AvgPool2d, GlobalAvgPool2d, Dropout,
)


class InferencePlan:
    """A compiled, shape-specialized execution recipe for one engine."""

    def __init__(self, engine, input_shape, input_dtype, mode, steps,
                 conv_steps, sparse_groups) -> None:
        self.engine = engine
        self.input_shape = tuple(input_shape)
        self.input_dtype = str(input_dtype)
        self.mode = mode  # "flat" | "graph"
        self.steps = steps
        self.conv_steps = conv_steps  # name -> PlannedConvStep
        self.sparse_groups = sparse_groups
        self.executions = 0

    def valid(self) -> bool:
        if self.mode == "flat":
            return all(step.valid() for step in self.steps)
        return all(step.valid() for step in self.conv_steps.values())

    def run(self, x: np.ndarray) -> np.ndarray:
        self.executions += 1
        if self.mode == "flat":
            out = x
            for step in self.steps:
                out = step.run(out)
            return out
        engine = self.engine
        engine._active_plan = self
        try:
            with no_grad():
                return engine.model(Tensor(x)).data
        finally:
            engine._active_plan = None

    # -- introspection -------------------------------------------------------

    def summary(self) -> dict:
        """Compact digest for ``session.describe()`` and the profile table."""
        return {
            "input_shape": list(self.input_shape),
            "input_dtype": self.input_dtype,
            "mode": self.mode,
            "steps": len(self.steps) if self.mode == "flat" else len(self.conv_steps),
            "conv_steps": len(self.conv_steps),
            "fast_conv_steps": sum(
                1 for s in self.conv_steps.values() if s.fast
            ),
            "sparse_batched_layers": sum(len(g) for g in self.sparse_groups),
            "executions": self.executions,
        }

    def describe(self) -> dict:
        """Full step-by-step listing (the ``repro plan`` CLI output)."""
        if self.mode == "flat":
            steps = [step.describe() for step in self.steps]
        else:
            steps = [step.describe() for step in self.conv_steps.values()]
        return {**self.summary(), "step_list": steps}


class _TraceEntry:
    __slots__ = ("module", "in_shape")

    def __init__(self, module, in_shape) -> None:
        self.module = module
        self.in_shape = in_shape


def _trace_leaves(engine, x: np.ndarray):
    """Run one inference with leaf forwards instrumented.

    Returns ``(tape, linear, output array)``.  The tape keeps each leaf
    call's module and input shape, never its arrays, so the trace holds
    no more activations than an unplanned inference.  ``linear`` is true
    when the calls form one pass-the-baton chain, checked as they
    happen by array *identity*: each leaf consumed exactly the previous
    leaf's output (the one array the trace keeps alive), the first one
    consumed the model input, and the last one's output is the model
    output.  Residual adds, concats and untraced custom modules break
    identity and leave the plan in graph mode.

    The traced call *is* a full unplanned, tape-free inference (records
    and spans unchanged), so its output doubles as the result of the
    batch that triggered the compile.
    """
    from repro.core.pipeline import InstrumentedConv

    tape: list[_TraceEntry] = []
    wrapped: list = []
    xt = Tensor(x)
    # The array the next leaf must consume for the chain to hold; None
    # once it broke.
    baton = xt.data

    def instrument(module) -> None:
        orig = module.forward

        def traced(t):
            nonlocal baton
            chained = t.data is baton
            tape.append(_TraceEntry(module, t.data.shape))
            out = orig(t)
            baton = out.data if chained else None
            return out

        module.__dict__["forward"] = traced
        wrapped.append(module)

    for _, m in engine.model.named_modules():
        if "forward" in m.__dict__:
            continue  # already instance-patched: leave it alone
        if isinstance(m, InstrumentedConv) or type(m) in _LEAF_STEP_TYPES:
            instrument(m)

    try:
        with no_grad():
            out = engine.model(xt).data
    finally:
        for m in wrapped:
            m.__dict__.pop("forward", None)
    return tape, bool(tape) and out is baton, out


def _flat_step_for(entry):
    """Map one traced leaf call to a flat step, or None if unsupported."""
    from repro.core.pipeline import InstrumentedConv

    m = entry.module
    in_shape = entry.in_shape
    if isinstance(m, InstrumentedConv):
        return PlannedConvStep(m.executor, in_shape)
    if isinstance(m, Identity):
        return PassStep("identity")
    if isinstance(m, ReLU):
        return ReLUStep()
    if isinstance(m, Flatten):
        return FlattenStep()
    if isinstance(m, Dropout):
        if m.training and m.p > 0.0:
            return None  # stochastic: not plannable
        return PassStep("dropout-eval", module=m)
    if isinstance(m, (MaxPool2d, AvgPool2d)):
        if min(in_shape[2], in_shape[3]) < m.kernel_size:
            return PassStep("pool-smaller-than-window")
        cls = MaxPoolStep if isinstance(m, MaxPool2d) else AvgPoolStep
        return cls(m, in_shape)
    if isinstance(m, GlobalAvgPool2d):
        return GlobalAvgPoolStep(in_shape)
    if isinstance(m, Linear):
        return LinearStep(m, in_shape)
    if isinstance(m, BatchNorm2d):
        if m.training:
            return None  # running-stat updates: not plannable
        return BatchNormStep(m)
    return None


def _link_sparse_groups(conv_steps_in_order) -> list:
    """Give each run of >=2 consecutive sparse-capable fast conv steps a
    shared DispatchGroup for their gathered-row GEMMs."""
    groups: list[list[PlannedConvStep]] = []
    current: list[PlannedConvStep] = []
    for step in conv_steps_in_order:
        if step.fast and step.path_mode in ("sparse", "auto"):
            current.append(step)
        else:
            if len(current) >= 2:
                groups.append(current)
            current = []
    if len(current) >= 2:
        groups.append(current)
    for members in groups:
        group = gemm.DispatchGroup()
        for step in members:
            step.sparse_group = group
    return groups


def compile_plan(engine, x: np.ndarray):
    """Compile a plan for ``engine`` specialized to ``x``'s shape/dtype.

    Returns ``(plan, output)`` where ``output`` is the (bit-exact,
    unplanned) inference result of ``x`` itself — the compile pass costs
    one traced inference, never an extra forward.
    """
    tape, linear, out = _trace_leaves(engine, x)

    steps: list[PlanStep] | None = None
    if linear:
        candidate = [_flat_step_for(entry) for entry in tape]
        if all(step is not None for step in candidate):
            steps = candidate

    from repro.core.pipeline import InstrumentedConv

    if steps is not None:
        conv_in_order = [s for s in steps if isinstance(s, PlannedConvStep)]
        mode = "flat"
    else:
        # Graph mode: the model keeps walking its own forward; convs
        # route through pre-bound steps in traced execution order.
        conv_in_order = [
            PlannedConvStep(e.module.executor, e.in_shape)
            for e in tape
            if isinstance(e.module, InstrumentedConv)
        ]
        steps = []
        mode = "graph"

    sparse_groups = _link_sparse_groups(conv_in_order)
    conv_steps = {step.ex.info.name: step for step in conv_in_order}
    plan = InferencePlan(
        engine, x.shape, x.dtype, mode, steps, conv_steps, sparse_groups,
    )
    return plan, out


__all__ = [
    "InferencePlan",
    "PlanStep",
    "PlannedConvStep",
    "compile_plan",
]

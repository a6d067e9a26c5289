"""Compiled inference plans: shape-specialized binding of the conv layers.

An :class:`InferencePlan` is compiled once per (engine, input shape/dtype)
by tracing a single inference through the model and binding, per
instrumented conv, what the unplanned path re-derives on every call:

* packed weight operands (``PackedConvWeights``) and the 2-D bias,
* im2col geometry (output H/W, row counts) from the observed input shape,
* the GEMM shape, bound via :func:`repro.core.gemm.plan_gemm` into a
  :class:`~repro.core.gemm.GemmDispatch` (each call is
  :func:`repro.core.gemm.pgemm`, i.e. ``a @ b``),
* a shared :class:`~repro.core.gemm.DispatchGroup` as the sparse-row GEMM
  entry point of each run of consecutive sparse-capable conv layers.

``run()`` is the model's own forward under
:func:`~repro.nn.tensor.no_grad`, with every instrumented conv routed
through its :class:`PlannedConvStep`.  Every other layer (BN, pooling,
the classifier) runs its one forward in :mod:`repro.nn`,
planned or not, so planned output is ``==`` to the unplanned path by
construction for those layers.  A planned conv step is only a binder: it
runs the same :func:`repro.core.odq.odq_conv` kernel as
``ODQConvExecutor.run``, so the ODQ numerics, record upkeep (masks,
per-channel counts, exec-path census, MACs, phase times) and the
``odq.run`` span are one implementation, and a traced run times the
planned path that serves.  ``tests/core/test_plan.py`` pins the ``==``.

Staleness
---------
A plan never goes stale silently.  ``valid()`` re-checks, by object
identity, every piece of executor state a conv step froze (packed
operands, the bias array, exec-path config, instance-level ``run``
monkeypatches); the engine recompiles on mismatch.  Deliberately *not*
frozen: the mask threshold (``effective_threshold`` is read per call so
threshold sweeps hit the planned path unchanged) and the
``ColumnCache`` (built per call by ``executor._build_cache``, the one
place a layer call's cache is made, on the planned and unplanned paths
alike).
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
from repro.nn.tensor import Tensor, no_grad


class PlannedConvStep:
    """One instrumented conv bound to the plan's frozen operands.

    ``fast=True`` (an unpatched, frozen :class:`ODQConvExecutor`) runs the
    same :func:`~repro.core.odq.odq_conv` kernel as ``executor.run``, with
    the packed operands and 2-D bias frozen here, one
    :class:`~repro.core.gemm.GemmDispatch` for the predictor and dense
    GEMMs (both run one image at a time, ``(OH*OW, ckk) @ (ckk, c_out)``),
    and the sparse gathered-row GEMM issued through the run's shared
    :class:`~repro.core.gemm.DispatchGroup`.  Otherwise (non-ODQ scheme,
    subclass, or an instance-level ``run`` monkeypatch) the step calls
    ``executor.run``.
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


class InferencePlan:
    """A compiled, shape-specialized execution recipe for one engine."""

    def __init__(self, engine, input_shape, input_dtype, conv_steps,
                 sparse_groups) -> None:
        self.engine = engine
        self.input_shape = tuple(input_shape)
        self.input_dtype = str(input_dtype)
        self.conv_steps = conv_steps  # name -> PlannedConvStep
        self.sparse_groups = sparse_groups
        self.executions = 0

    def valid(self) -> bool:
        return all(step.valid() for step in self.conv_steps.values())

    def run(self, x: np.ndarray) -> np.ndarray:
        self.executions += 1
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
            "conv_steps": len(self.conv_steps),
            "fast_conv_steps": sum(
                1 for s in self.conv_steps.values() if s.fast
            ),
            "sparse_batched_layers": sum(len(g) for g in self.sparse_groups),
            "executions": self.executions,
        }

    def describe(self) -> dict:
        """Full step-by-step listing (the ``repro plan`` CLI output)."""
        steps = [step.describe() for step in self.conv_steps.values()]
        return {**self.summary(), "step_list": steps}


def _trace_convs(engine, x: np.ndarray):
    """Run one inference with the instrumented convs' forwards wrapped.

    Returns ``(steps, output array)``: one :class:`PlannedConvStep` per
    conv call, in execution order, bound to that call's input shape.
    The trace keeps shapes, never arrays, so it holds no more
    activations than an unplanned inference.

    The traced call *is* a full unplanned, tape-free inference (records
    and spans unchanged), so its output doubles as the result of the
    batch that triggered the compile.
    """
    from repro.core.pipeline import InstrumentedConv

    steps: list[PlannedConvStep] = []
    wrapped: list = []

    def instrument(module) -> None:
        orig = module.forward

        def traced(t):
            out = orig(t)
            steps.append(PlannedConvStep(module.executor, t.data.shape))
            return out

        module.__dict__["forward"] = traced
        wrapped.append(module)

    for _, m in engine.model.named_modules():
        if "forward" in m.__dict__:
            continue  # already instance-patched: leave it alone
        if isinstance(m, InstrumentedConv):
            instrument(m)

    try:
        with no_grad():
            out = engine.model(Tensor(x)).data
    finally:
        for m in wrapped:
            m.__dict__.pop("forward", None)
    return steps, out


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
    conv_in_order, out = _trace_convs(engine, x)
    sparse_groups = _link_sparse_groups(conv_in_order)
    conv_steps = {step.ex.info.name: step for step in conv_in_order}
    plan = InferencePlan(engine, x.shape, x.dtype, conv_steps, sparse_groups)
    return plan, out


__all__ = [
    "InferencePlan",
    "PlannedConvStep",
    "compile_plan",
]

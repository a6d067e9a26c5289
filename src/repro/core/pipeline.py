"""Quantized inference engine.

Takes a trained model and a :class:`~repro.core.schemes.Scheme`, replaces
every convolution with an instrumented executor, calibrates quantization
ranges on sample data, and then serves quantized inference while
collecting per-layer :class:`~repro.core.base.LayerRecord` statistics.

The engine is the glue reproducing the paper's methodology end-to-end:

    trained net --calibrate--> quantized inference --masks--> accelerator
    (Fig. 18 accuracy)                              (Figs 9-11, 19-21)
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict

import numpy as np

from repro.core.base import ConvExecutor, LayerRecord
from repro.core.schemes import Scheme
from repro.nn.layers import Conv2d, Module, swap_modules
from repro.nn.tensor import Tensor, no_grad
from repro.nn.trainer import iterate_minibatches
from repro.obs import trace
from repro.obs.log import get_logger

_log = get_logger("repro.core.pipeline")


class InstrumentedConv(Module):
    """Stand-in module that routes a conv through its scheme executor."""

    def __init__(self, executor: ConvExecutor, engine: "QuantizedInferenceEngine") -> None:
        super().__init__()
        self.executor = executor
        self.engine = engine

    def forward(self, x: Tensor) -> Tensor:
        if self.engine.capture_inputs:
            self.executor.record.extra["last_input"] = x.data
        calibrating = self.engine.mode == "calibrate"
        if not calibrating:
            # Plans: the model walks its own forward, but each conv
            # routes through its plan step, which runs the executor's own
            # kernel over the plan's frozen operands.
            plan = self.engine._active_plan
            if plan is not None:
                step = plan.conv_steps.get(self.executor.info.name)
                if step is not None:
                    return Tensor(step.run(x.data))
        fn = self.executor.calibrate if calibrating else self.executor.run
        if trace.enabled():
            with trace.span(
                "engine.layer",
                layer=self.executor.info.name,
                mode="calibrate" if calibrating else "run",
            ):
                return Tensor(fn(x.data))
        return Tensor(fn(x.data))


class QuantizedInferenceEngine:
    """Applies a quantization scheme to a model for instrumented inference.

    The model is mutated in place (convs swapped for instrumented twins);
    use :meth:`restore` to undo.  Only ``Conv2d`` layers are quantized —
    matching the paper's focus ("our focus is on inference time, with a
    particular emphasis on the convolutional layers"); BN, pooling and the
    classifier head run in floating point.

    Every entry point (:meth:`calibrate`, :meth:`infer`, :meth:`forward`
    / :meth:`evaluate`) runs the model under
    :func:`~repro.nn.tensor.no_grad`: inference records no autograd tape.

    Reuse & threading
    -----------------
    One engine is long-lived and reusable: :meth:`calibrate` once, then
    call :meth:`infer` any number of times (each ``repro serve`` process
    builds one ``ModelSession`` and streams batches through its engines).
    Mode switching (``calibrate`` ↔ ``run``) and inference are serialized
    by an internal lock, so a calibration can never interleave with a
    concurrent ``infer``.  The engine is *thread-confinable*, not thread-parallel:
    for N concurrent workers use :meth:`clone` to give each worker its own
    engine (sharing nothing mutable), which is what the serving worker
    pool does.
    """

    #: Valid engine modes (see :attr:`mode`).
    MODES = ("calibrate", "run")

    def __init__(self, model: Module, scheme: Scheme, skip_first_conv: bool = False) -> None:
        self.model = model
        self.scheme = scheme
        self._mode = "calibrate"
        self._lock = threading.RLock()
        #: When true, each conv's latest input batch is stored in
        #: ``record.extra["last_input"]`` (used by the motivation study).
        self.capture_inputs = False
        self.executors: "OrderedDict[str, ConvExecutor]" = OrderedDict()
        self._originals: list[tuple[Module, str, int | None, Conv2d]] = []
        #: When true, :meth:`infer` compiles and reuses shape-specialized
        #: :class:`~repro.core.plan.InferencePlan`s (see that module).
        #: ``forward``/``evaluate``/calibration always run unplanned.
        self.use_plan = True
        #: Max distinct (shape, dtype) specializations kept (LRU).
        self.plan_cache_limit = 8
        self._init_plan_state()
        self._install(skip_first_conv)

    def _init_plan_state(self) -> None:
        self._plans: "OrderedDict[tuple, object]" = OrderedDict()
        self._active_plan = None
        self._plan_stats = {
            "compiles": 0, "hits": 0, "invalidated": 0, "evictions": 0,
        }

    # -- mode handling -------------------------------------------------------------

    @property
    def mode(self) -> str:
        """Current phase: ``"calibrate"`` (observing FP ranges) or ``"run"``."""
        return self._mode

    @mode.setter
    def mode(self, value: str) -> None:
        if value not in self.MODES:
            raise ValueError(f"unknown engine mode {value!r}; expected one of {self.MODES}")
        with self._lock:
            self._mode = value

    @property
    def calibrated(self) -> bool:
        """True once every executor has frozen quantization parameters."""
        return bool(self.executors) and all(ex.frozen for ex in self.executors.values())

    # -- cloning -------------------------------------------------------------------

    def __deepcopy__(self, memo: dict) -> "QuantizedInferenceEngine":
        # Locks are not deep-copyable; everything else (model, executors,
        # frozen qparams, records) is plain data.  The memo ensures the
        # clone's InstrumentedConvs point at the clone, not the original.
        # The quantized convs' float weights and biases are not copied:
        # the clone gets read-only views of them (see clone()).
        cls = self.__class__
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        for ex in self.executors.values():
            for param in (ex.conv.weight, ex.conv.bias):
                if param is not None:
                    view = param.data.view()
                    view.flags.writeable = False
                    memo[id(param.data)] = view
        for key, value in self.__dict__.items():
            if key == "_lock":
                setattr(clone, key, threading.RLock())
            elif key in ("_plans", "_active_plan", "_plan_stats"):
                # Plans pre-bind this engine's executors (and may hold
                # thread-pool handles); clones recompile lazily.
                continue
            else:
                setattr(clone, key, copy.deepcopy(value, memo))
        clone._init_plan_state()
        return clone

    def clone(self) -> "QuantizedInferenceEngine":
        """An independent engine (own model/executors/records/lock).

        Calibration state is carried over, so a calibrated engine clones
        into a ready-to-``infer`` engine — this is how the serving worker
        pool confines one engine per worker thread without recalibrating.

        Immutable state is shared, not copied: the frozen executors'
        packed operands, and the float weights and biases of the
        quantized convs, which the clone holds as read-only views of this
        engine's arrays (a frozen ODQ executor never reads them; freezing
        the clone again reads them without writing).  Writing to a
        clone's conv weights raises; write to this engine's instead,
        which every clone sees.
        """
        with self._lock:
            return copy.deepcopy(self)

    # -- installation -------------------------------------------------------------

    def _install(self, skip_first_conv: bool) -> None:
        engine = self
        counter = {"conv": 0}
        names = {id(m): n for n, m in self.model.named_modules()}

        def transform(m: Module) -> Module:
            if isinstance(m, Conv2d) and not isinstance(m, InstrumentedConv):
                idx = counter["conv"]
                counter["conv"] += 1
                if skip_first_conv and idx == 0:
                    return m
                name = names.get(id(m), f"conv{idx}")
                executor = engine.scheme.make_executor(m, f"C{idx + 1}:{name}")
                engine.executors[executor.info.name] = executor
                return InstrumentedConv(executor, engine)
            return m

        swap_modules(self.model, transform)
        if not self.executors:
            raise ValueError("model contains no Conv2d layers to quantize")
        self._list_modules()

    def _list_modules(self) -> None:
        """List every module of the model once (at install and restore),
        so :meth:`_eval` is a flat pass, not ``model.eval()``'s walk."""
        self._modules = [m for _, m in self.model.named_modules()]

    def _eval(self) -> None:
        """``model.eval()`` over the modules listed at install."""
        for m in self._modules:
            m.training = False

    def restore(self) -> None:
        """Put the original Conv2d modules back."""

        def transform(m: Module) -> Module:
            if isinstance(m, InstrumentedConv):
                return m.executor.conv
            return m

        swap_modules(self.model, transform)
        self.executors.clear()
        self._plans.clear()
        self._list_modules()

    # -- calibration ---------------------------------------------------------------

    def calibrate(self, x: np.ndarray, batch_size: int = 128) -> None:
        """Observe ``x`` where a scheme needs it, then freeze qparams.

        The FP forward passes over ``x`` run only when some executor's
        ``reads_calibration`` is true (static INT, DRQ, scaled-mode ODQ).
        Absolute-mode ODQ reads nothing from them — its activation qparams
        come from each call's own range — so it only freezes its weights.

        Safe to call again later (recalibration): observers accumulate the
        new ranges and ``freeze`` recomputes quantization parameters.  The
        engine only transitions to ``run`` mode if calibration completes —
        a failure leaves it in ``calibrate`` mode with ``infer`` refusing
        to serve stale state.
        """
        with self._lock, trace.span(
            "engine.calibrate", images=len(x), scheme=self.scheme.name
        ):
            self.mode = "calibrate"
            if any(ex.reads_calibration for ex in self.executors.values()):
                self.model.eval()
                with no_grad():
                    for start in range(0, len(x), batch_size):
                        self.model(Tensor(x[start : start + batch_size]))
            for executor in self.executors.values():
                executor.freeze()
            # Re-freezing replaces packed operands and qparams; compiled
            # plans pre-bind those, so they are stale by construction.
            self._plans.clear()
            self.mode = "run"
        _log.debug(
            "engine_calibrated",
            scheme=self.scheme.name,
            images=len(x),
            layers=len(self.executors),
        )

    # -- inference -------------------------------------------------------------------

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Quantized inference on one batch (explicit serving entry point).

        ``x`` is an NCHW float array; returns the logits array.  Requires
        a completed :meth:`calibrate`.  Serialized with mode switches via
        the engine lock, so a concurrent recalibration can never observe a
        half-switched engine.
        """
        x = np.asarray(x)
        if x.ndim != 4:
            raise ValueError(f"expected NCHW batch (4 dims), got shape {x.shape}")
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float64)  # the cast Tensor() would apply
        with self._lock:
            if self.mode != "run":
                raise RuntimeError("engine not calibrated; call calibrate() first")
            self._eval()
            with no_grad():
                if trace.enabled():
                    with trace.span(
                        "engine.infer", batch=int(x.shape[0]), scheme=self.scheme.name
                    ):
                        return self._infer_locked(x)
                return self._infer_locked(x)

    def _infer_locked(self, x: np.ndarray) -> np.ndarray:
        """Planned dispatch for one batch; falls back to the legacy path.

        Plans specialize on the observed (shape, dtype) and transparently
        recompile on shape change (keyed, LRU-bounded) or when a staleness
        probe fails (re-freeze, exec-path change, monkeypatched executor).
        """
        if not self.use_plan or self.capture_inputs:
            return self.model(Tensor(x)).data
        key = (x.shape, x.dtype.str)
        plan = self._plans.get(key)
        if plan is not None:
            if plan.valid():
                self._plans.move_to_end(key)
                self._plan_stats["hits"] += 1
                return plan.run(x)
            del self._plans[key]
            self._plan_stats["invalidated"] += 1
        from repro.core.plan import compile_plan

        plan, out = compile_plan(self, x)
        self._plans[key] = plan
        self._plan_stats["compiles"] += 1
        while len(self._plans) > self.plan_cache_limit:
            self._plans.popitem(last=False)
            self._plan_stats["evictions"] += 1
        return out

    def plan_stats(self) -> dict:
        """Plan-cache counters plus a per-plan summary (profile table)."""
        return {
            **self._plan_stats,
            "cached": len(self._plans),
            "limit": self.plan_cache_limit,
            "enabled": self.use_plan,
            "plans": [p.summary() for p in self._plans.values()],
        }

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Back-compat alias of :meth:`infer` (without the ndim check)."""
        x = np.asarray(x)
        with self._lock:
            if self.mode != "run":
                raise RuntimeError("engine not calibrated; call calibrate() first")
            self._eval()
            with no_grad():
                return self.model(Tensor(x)).data

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 128) -> float:
        """Top-1 accuracy under the quantization scheme."""
        if len(x) == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        correct = 0
        for xb, yb in iterate_minibatches(x, y, batch_size):
            logits = self.forward(xb)
            correct += int((logits.argmax(axis=1) == yb).sum())
        return correct / len(x)

    # -- results -----------------------------------------------------------------------

    @property
    def records(self) -> "OrderedDict[str, LayerRecord]":
        return OrderedDict(
            (name, ex.record) for name, ex in self.executors.items()
        )

    def reset_records(self) -> None:
        with self._lock:
            for ex in self.executors.values():
                ex.record = LayerRecord(info=ex.info)

    def total_macs(self) -> dict[str, int]:
        """Aggregate MAC counts by precision class across all layers."""
        totals: dict[str, int] = {}
        for rec in self.records.values():
            for key, val in rec.macs.items():
                totals[key] = totals.get(key, 0) + val
        return totals

    def mean_sensitive_fraction(self) -> float:
        """Output-sensitive fraction across all layers (ODQ schemes)."""
        total = sum(r.outputs_total for r in self.records.values())
        sens = sum(r.sensitive_total for r in self.records.values())
        return sens / total if total else 0.0


def run_scheme(
    model: Module,
    scheme: Scheme,
    x_calib: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    batch_size: int = 128,
) -> tuple[float, "OrderedDict[str, LayerRecord]"]:
    """Convenience one-shot: calibrate, evaluate, restore.

    Returns (top-1 accuracy, per-layer records).  The model is returned to
    its original modules even if evaluation raises.
    """
    engine = QuantizedInferenceEngine(model, scheme)
    try:
        engine.calibrate(x_calib, batch_size)
        acc = engine.evaluate(x_test, y_test, batch_size)
        records = engine.records
    finally:
        engine.restore()
    return acc, records


__all__ = ["InstrumentedConv", "QuantizedInferenceEngine", "run_scheme"]

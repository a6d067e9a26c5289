"""Compiled inference plans (:mod:`repro.core.plan`).

Planned execution is *bit-identical* (``==``, not approx) to the
unplanned path — across conv geometry (stride, padding, bias), every
exec path, and changing batch shapes — and runs every conv through its
``PlannedConvStep`` once per ``infer``.  Also pinned here: shape-change
recompiles, staleness invalidation, LRU bounding of the per-engine plan
cache, clone isolation, and a compile that holds no more memory than an
unplanned inference.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.base import PHASES
from repro.core.odq import ODQConvExecutor
from repro.core.pipeline import QuantizedInferenceEngine
from repro.core.plan import PlannedConvStep
from repro.core.schemes import odq_scheme
from repro.models import build_model
from repro.nn import functional as F
from repro.nn.layers import (
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.tensor import Tensor

SIZE = 12  # input spatial size; small on purpose (many engines built here)


def _conv_net(stride: int, padding: int, bias: bool, seed: int = 0):
    rng = np.random.default_rng(seed)
    o1 = (SIZE + 2 * padding - 3) // stride + 1
    feat = o1 // 2
    return Sequential(
        Conv2d(2, 4, 3, stride=stride, padding=padding, bias=bias, rng=rng),
        ReLU(),
        Conv2d(4, 4, 3, padding=1, bias=bias, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(4 * feat * feat, 5, rng=rng),
    )


def _calibrated_engine(model, exec_path: str = "auto", threshold: float = 0.5):
    rng = np.random.default_rng(7)
    x_calib = rng.normal(0.0, 1.0, size=(16, 2, SIZE, SIZE))
    engine = QuantizedInferenceEngine(
        model, odq_scheme(threshold, exec_path=exec_path)
    )
    engine.calibrate(x_calib)
    return engine


def _batch(n: int, seed: int = 42) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, 1.0, size=(n, 2, SIZE, SIZE))


def _count_step_runs(monkeypatch) -> list:
    """Record the layer of every PlannedConvStep.run call from now on."""
    calls: list = []
    original = PlannedConvStep.run

    def spy(self, x):
        calls.append(self.ex.info.name)
        return original(self, x)

    monkeypatch.setattr(PlannedConvStep, "run", spy)
    return calls


def _planned_vs_unplanned(engine, x) -> tuple[np.ndarray, np.ndarray]:
    engine.use_plan = False
    ref = engine.infer(x)
    engine.use_plan = True
    out = engine.infer(x)
    return out, ref


class TestPlannedBitExactness:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("bias", [True, False])
    def test_geometry_grid(self, stride, padding, bias):
        engine = _calibrated_engine(_conv_net(stride, padding, bias))
        try:
            for n in (1, 3, 8):
                x = _batch(n, seed=n)
                out, ref = _planned_vs_unplanned(engine, x)
                assert out.dtype == ref.dtype
                assert np.array_equal(out, ref)  # bit-identical, not approx
        finally:
            engine.restore()
        stats = engine.plan_stats()
        assert stats["compiles"] >= 1

    @pytest.mark.parametrize("exec_path", ["auto", "dense", "sparse"])
    def test_exec_path_grid(self, exec_path, monkeypatch):
        engine = _calibrated_engine(_conv_net(1, 1, True), exec_path=exec_path)
        try:
            x = _batch(4)
            out, ref = _planned_vs_unplanned(engine, x)
            assert np.array_equal(out, ref)
            # A second planned run executes the compiled steps (the
            # compile's traced call doubles as the first inference).
            step_runs = _count_step_runs(monkeypatch)
            again = engine.infer(x)
            assert np.array_equal(again, ref)
            plans = engine.plan_stats()["plans"]
            assert plans[0]["fast_conv_steps"] == plans[0]["conv_steps"] == 2
            assert step_runs == list(engine.executors)
        finally:
            engine.restore()

    @pytest.mark.parametrize("exec_path", ["auto", "dense", "sparse"])
    def test_planned_records_equal_unplanned(self, exec_path):
        """The planned conv steps keep every record field the unplanned
        executor keeps, with identical values."""
        engines = [
            _calibrated_engine(_conv_net(1, 1, True), exec_path=exec_path)
            for _ in range(2)
        ]
        planned, unplanned = engines
        unplanned.use_plan = False
        try:
            for engine in engines:
                engine.reset_records()
                for n, seed in ((4, 1), (4, 2), (3, 3), (4, 1)):
                    engine.infer(_batch(n, seed=seed))
            assert planned.plan_stats()["hits"] >= 2
            for name, rec in planned.records.items():
                ref = unplanned.records[name]
                assert rec.sensitive_total == ref.sensitive_total
                assert rec.outputs_total == ref.outputs_total
                assert np.array_equal(rec.per_channel_sensitive,
                                      ref.per_channel_sensitive)
                assert rec.last_mask is not None
                assert np.array_equal(rec.last_mask.mask, ref.last_mask.mask)
                assert rec.macs == ref.macs
                assert rec.path_calls and rec.path_calls == ref.path_calls
                for census in ("images", "out_h", "out_w", "rows_total",
                               "rows_computed", "flops_full", "flops_full_dense",
                               "input_total", "input_sensitive_total"):
                    assert getattr(rec, census) == getattr(ref, census), census
                assert rec.rows_total > 0 and rec.flops_full_dense > 0
                assert rec.phase_calls == ref.phase_calls == [4] * len(PHASES)
                assert rec.extra.keys() == ref.extra.keys()
        finally:
            for engine in engines:
                engine.restore()

    def test_traced_plan_runs_compiled_steps(self, monkeypatch):
        """Tracing does not switch code paths: a traced planned engine
        runs its compiled conv steps, each emitting one odq.run span with
        the call's four phase durations, and returns the untraced
        planned output."""
        from repro.obs import trace

        engine = _calibrated_engine(_conv_net(1, 1, True))
        try:
            x = _batch(4)
            engine.infer(x)  # compile
            ref = engine.infer(x)
            step_runs = _count_step_runs(monkeypatch)
            with trace.collect(reset=True):
                out = engine.infer(x)
                spans = trace.spans()
            assert np.array_equal(out, ref)
            assert step_runs == list(engine.executors)
            for layer in step_runs:
                (run,) = [s for s in spans if s.attrs.get("layer") == layer]
                assert run.name == "odq.run"
                assert run.attrs["path"] in ("dense", "sparse")
                durations = [run.attrs[f"{phase}_ns"] for phase in PHASES]
                assert all(ns > 0 for ns in durations)
                assert sum(durations) <= run.duration_us * 1000 + 1000
                assert not run.counters
            assert sum(s.name == "odq.run" for s in spans) == 2
        finally:
            engine.restore()

    def test_threshold_change_stays_exact_without_recompile(self):
        """effective_threshold is read per call (deliberately not frozen),
        so sweeping theta must not invalidate the plan — and must still
        match the unplanned path bit-for-bit."""
        engine = _calibrated_engine(_conv_net(1, 1, True))
        try:
            x = _batch(4)
            engine.infer(x)  # compile
            compiles = engine.plan_stats()["compiles"]
            for ex in engine.executors.values():
                if isinstance(ex, ODQConvExecutor):
                    ex.threshold = 0.05
            out, ref = _planned_vs_unplanned(engine, x)
            assert np.array_equal(out, ref)
            assert engine.plan_stats()["compiles"] == compiles
        finally:
            engine.restore()

    def test_residual_model_runs_every_conv_step(
        self, trained_resnet, calib_batch, monkeypatch
    ):
        """A residual model (adds, shortcut convs) stays bit-identical,
        and a planned run calls every conv's step exactly once."""
        model, _ = trained_resnet
        engine = QuantizedInferenceEngine(model, odq_scheme(0.5))
        try:
            engine.calibrate(calib_batch[:16])
            x = calib_batch[:4]
            out, ref = _planned_vs_unplanned(engine, x)
            assert np.array_equal(out, ref)
            step_runs = _count_step_runs(monkeypatch)
            assert np.array_equal(engine.infer(x), ref)
            assert sorted(step_runs) == sorted(engine.executors)
        finally:
            engine.restore()


@pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2), (3, 3)])
def test_maxpool_step_picks_the_argmax_element(kernel, stride):
    """``F.max_pool2d``, which planned and unplanned runs share, returns
    each window's first-argmax element, bit for bit: -0.0/0.0 ties keep
    the earlier element and the first NaN wins."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 9, 9))
    x = x * (x > 0)  # ReLU output: -0.0 where x < 0
    x[0, 0, :3, :3] = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, 0.0, -0.0]]
    x[0, 1, :3, :3] = -0.0
    x[0, 1, 1, 1] = 0.0
    x[1, 2, 0, 1] = np.nan
    x[1, 2, 1, 0] = -np.nan
    x[1, 2, 4, 4] = np.nan
    # Conv outputs reach the pool as NCHW views of NHWC memory.
    x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    n, c, h, w = x.shape
    oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw), writeable=False,
    ).reshape(n, c, oh, ow, kernel * kernel)
    arg = patches.argmax(axis=-1)
    ref = np.take_along_axis(patches, arg[..., None], axis=-1)[..., 0]
    out = F.max_pool2d(Tensor(x), kernel, stride).data
    assert out.shape == ref.shape
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))


class TestPlanLifecycle:
    def test_recompile_on_shape_change_then_hit(self):
        engine = _calibrated_engine(_conv_net(1, 1, True))
        try:
            engine.infer(_batch(4))
            engine.infer(_batch(2))
            engine.infer(_batch(4))  # back to the first shape: cache hit
            stats = engine.plan_stats()
            assert stats["compiles"] == 2
            assert stats["hits"] == 1
            assert stats["cached"] == 2
            shapes = {tuple(p["input_shape"]) for p in stats["plans"]}
            assert shapes == {(4, 2, SIZE, SIZE), (2, 2, SIZE, SIZE)}
        finally:
            engine.restore()

    def test_lru_bound_evicts_oldest(self):
        engine = _calibrated_engine(_conv_net(1, 1, True))
        try:
            engine.plan_cache_limit = 2
            for n in (1, 2, 3, 4):
                engine.infer(_batch(n))
            stats = engine.plan_stats()
            assert stats["compiles"] == 4
            assert stats["evictions"] == 2
            assert stats["cached"] == 2
            # Oldest shapes are gone; most-recent two remain.
            shapes = {tuple(p["input_shape"])[0] for p in stats["plans"]}
            assert shapes == {3, 4}
        finally:
            engine.restore()

    def test_stale_plan_invalidated_on_executor_change(self):
        """Flipping a frozen decision (exec_path) must invalidate the
        cached plan, recompile, and still match the unplanned path."""
        engine = _calibrated_engine(_conv_net(1, 1, True), exec_path="dense")
        try:
            x = _batch(4)
            engine.infer(x)
            for ex in engine.executors.values():
                if isinstance(ex, ODQConvExecutor):
                    ex.exec_path = "sparse"
            out, ref = _planned_vs_unplanned(engine, x)
            assert np.array_equal(out, ref)
            stats = engine.plan_stats()
            assert stats["invalidated"] >= 1
            assert stats["compiles"] >= 2
        finally:
            engine.restore()

    def test_clone_gets_fresh_plan_state(self):
        engine = _calibrated_engine(_conv_net(1, 1, True))
        try:
            x = _batch(4)
            engine.infer(x)
            clone = engine.clone()
            stats = clone.plan_stats()
            assert stats["compiles"] == 0 and stats["cached"] == 0
            out = clone.infer(x)
            ref = engine.infer(x)
            assert np.array_equal(out, ref)
        finally:
            engine.restore()

    def test_compile_holds_no_more_than_an_unplanned_infer(self):
        """The compile's trace keeps each conv's input shape, not its
        arrays: the traced peak of a batch-8 compile stays within 1.5x
        that of an unplanned ``infer`` of the same batch (a residual
        model, so the trace walks the whole graph)."""
        rng = np.random.default_rng(3)
        engine = QuantizedInferenceEngine(
            build_model("resnet20", scale=0.5, rng=rng), odq_scheme(0.3)
        )
        x = rng.uniform(0.0, 1.0, size=(8, 3, 16, 16))
        engine.calibrate(x)

        def traced_peak(use_plan: bool) -> int:
            engine.use_plan = use_plan
            tracemalloc.start()
            try:
                engine.infer(x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        try:
            traced_peak(False)  # first-call set-up stays out of both peaks
            unplanned = traced_peak(False)
            compile_peak = traced_peak(True)
            assert engine.plan_stats()["compiles"] == 1
            assert compile_peak <= 1.5 * unplanned, (compile_peak, unplanned)
        finally:
            engine.restore()

    def test_no_plan_flag_bypasses_compilation(self):
        engine = _calibrated_engine(_conv_net(1, 1, True))
        try:
            engine.use_plan = False
            engine.infer(_batch(4))
            stats = engine.plan_stats()
            assert stats["compiles"] == 0 and not stats["enabled"]
        finally:
            engine.restore()

"""What a frozen engine holds, and what one ODQ conv call allocates.

A frozen ODQ executor keeps its quantization parameters and one
immutable :class:`~repro.core.colcache.PackedConvWeights`; engine clones
share that value.  The conv kernel unfolds and multiplies one image at a
time, which changes no bit of any output (``==`` against the whole-batch
column matrices, planned and unplanned).
"""

import copy
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core import odq
from repro.core.colcache import ColumnCache, PackedConvWeights, pack_conv_weights
from repro.core.odq import ODQConvExecutor, odq_weight_qparams
from repro.core.pipeline import QuantizedInferenceEngine
from repro.core.schemes import odq_scheme
from repro.models import build_model
from repro.nn import Conv2d
from repro.quant.uniform import affine_qparams, quantize


def _resnet20_engine(seed: int = 0, exec_path: str = "auto"):
    rng = np.random.default_rng(seed)
    engine = QuantizedInferenceEngine(
        build_model("resnet20", scale=0.5, rng=rng),
        odq_scheme(0.3, exec_path=exec_path),
    )
    engine.calibrate(rng.uniform(0.0, 1.0, size=(4, 3, 16, 16)))
    return engine


def _held_arrays(ex: ODQConvExecutor):
    """Every array the executor itself holds.  The conv layer belongs to
    the model and the record is the census, so neither counts."""
    for key, value in vars(ex).items():
        if key in ("conv", "record"):
            continue
        if isinstance(value, PackedConvWeights):
            yield from (value.wmat_full, value.wmat_high, value.w_sum)
        elif isinstance(value, np.ndarray):
            yield value


class TestFrozenExecutor:
    def test_holds_only_packed_operands_and_bias(self):
        engine = _resnet20_engine()
        try:
            for ex in engine.executors.values():
                held = list(_held_arrays(ex))
                assert not [a for a in held if a.dtype == np.int64]
                packed = ex._packed
                bias = 0 if ex.conv.bias is None else ex.conv.bias.data.nbytes
                limit = (packed.wmat_full.nbytes + packed.wmat_high.nbytes
                         + packed.w_sum.nbytes + bias)
                assert sum(a.nbytes for a in held) <= limit
        finally:
            engine.restore()

    def test_clones_share_read_only_operands(self):
        engine = _resnet20_engine()
        try:
            clone = engine.clone()
            for name, ex in engine.executors.items():
                packed = clone.executors[name]._packed
                assert packed is ex._packed
                with pytest.raises(ValueError):
                    packed.wmat_full[0, 0] = 1.0
            x = np.random.default_rng(1).uniform(0.0, 1.0, size=(3, 3, 16, 16))
            assert np.array_equal(clone.infer(x), engine.infer(x))
        finally:
            engine.restore()

    def test_clones_sharing_operands_infer_concurrently(self):
        """Four clones on threads (more than cores), with a short switch
        interval, answer exactly what the source answers serially."""
        engine = _resnet20_engine()
        rng = np.random.default_rng(3)
        batches = [rng.uniform(0.0, 1.0, size=(2, 3, 16, 16)) for _ in range(3)]
        try:
            want = [engine.infer(x) for x in batches]
            clones = [engine.clone() for _ in range(4)]
            got: dict = {}

            def work(i, clone):
                got[i] = [clone.infer(x) for _ in range(2) for x in batches]

            threads = [threading.Thread(target=work, args=(i, c))
                       for i, c in enumerate(clones)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert sorted(got) == [0, 1, 2, 3]
            for outs in got.values():
                assert all(np.array_equal(a, b) for a, b in zip(outs, want * 2))
        finally:
            engine.restore()

    def test_packed_weights_are_an_immutable_value(self, rng):
        w = rng.normal(0.0, 1.0, size=(4, 3, 3, 3))
        qp_w = odq_weight_qparams(w, 4)
        packed = pack_conv_weights(quantize(w, qp_w), qp_w, 2, a_max=15)
        assert copy.deepcopy(packed) is packed
        for arr in (packed.wmat_full, packed.wmat_high, packed.w_sum):
            assert not arr.flags.writeable


class TestCloneSharesFloatWeights:
    """A clone holds read-only views of the quantized convs' float
    weights and biases instead of copies: a frozen ODQ executor never
    reads them, and re-freezing only reads them."""

    def test_clone_allocates_no_weight_copy(self):
        rng = np.random.default_rng(0)
        engine = QuantizedInferenceEngine(
            build_model("resnet20", rng=rng), odq_scheme(0.3)
        )
        engine.calibrate(rng.uniform(0.0, 1.0, size=(2, 3, 16, 16)))
        try:
            weights = sum(ex.conv.weight.data.nbytes for ex in engine.executors.values())
            assert weights > 2_000_000  # full-width resnet20: ~2.1 MB float64
            tracemalloc.start()
            try:
                clone = engine.clone()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 500_000, f"clone allocated {peak / 1e6:.2f} MB"
            for name, ex in engine.executors.items():
                copy_w = clone.executors[name].conv.weight.data
                assert np.shares_memory(copy_w, ex.conv.weight.data)
        finally:
            engine.restore()

    def test_writing_a_clone_weight_raises(self):
        engine = _resnet20_engine()
        try:
            clone = engine.clone()
            conv = next(iter(clone.executors.values())).conv
            with pytest.raises(ValueError, match="read-only"):
                conv.weight.data[0, 0, 0, 0] = 1.0
            # The source keeps its own, writable arrays.
            assert next(iter(engine.executors.values())).conv.weight.data.flags.writeable
        finally:
            engine.restore()

    @pytest.mark.parametrize("use_plan", [True, False])
    def test_refrozen_clone_infers_equal(self, use_plan):
        engine = _resnet20_engine()
        try:
            x = np.random.default_rng(2).uniform(0.0, 1.0, size=(3, 3, 16, 16))
            clone = engine.clone()
            clone.use_plan = engine.use_plan = use_plan
            clone.calibrate(x)
            for name, ex in engine.executors.items():
                assert clone.executors[name]._packed is not ex._packed
            assert np.array_equal(clone.infer(x), engine.infer(x))
        finally:
            engine.restore()


class TestConvCallMemory:
    @pytest.mark.parametrize("threshold, path", [(0.3, "dense"), (2.0, "sparse")])
    def test_traced_peak_of_one_call(self, threshold, path):
        """One batch-8 call on a (16, 32, 32) input unfolds one image at
        a time.  Measured peaks, in multiples of the input's bytes:
        dense 13.5 whole-batch vs 5.0 per image, sparse (0.2% of rows)
        7.8 vs 3.3."""
        rng = np.random.default_rng(0)
        conv = Conv2d(16, 16, 3, padding=1, rng=rng)
        x = rng.uniform(0.0, 1.0, size=(8, 16, 32, 32))
        ex = ODQConvExecutor(conv, "C", threshold=threshold)
        ex.calibrate(x)
        ex.freeze()
        ex.run(x)  # first-call set-up stays out of the peak
        tracemalloc.start()
        try:
            ex.run(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ex.record.path_calls == {path: 2}
        assert peak <= 6.5 * x.nbytes, peak / x.nbytes


def _whole_batch_gemm(cache, high, wmat, mm):
    return mm(cache.cols_high if high else cache.cols, wmat)


class TestPerImageUnfold:
    @pytest.mark.parametrize("exec_path", ["dense", "sparse"])
    @pytest.mark.parametrize("use_plan", [True, False])
    def test_equals_whole_batch_columns(self, monkeypatch, exec_path, use_plan):
        engine = _resnet20_engine(exec_path=exec_path)
        engine.use_plan = use_plan
        rng = np.random.default_rng(2)
        batches = [rng.uniform(0.0, 1.0, size=(n, 3, 16, 16)) for n in range(1, 9)]
        try:
            per_image = [engine.infer(x) for x in batches]
            with monkeypatch.context() as m:
                m.setattr(odq, "_image_gemm", _whole_batch_gemm)
                whole = [engine.infer(x) for x in batches]
            for a, b in zip(per_image, whole):
                assert np.array_equal(a, b)
        finally:
            engine.restore()

    def test_qat_forward_slices_the_one_unfold(self, monkeypatch, rng):
        """QAT's forward builds the whole-batch ``cols`` that its STE
        backward reads; the kernel slices it rather than unfolding each
        image a second time, and the outputs do not change."""
        w = rng.normal(0.0, 0.3, size=(8, 4, 3, 3))
        x = rng.uniform(0.0, 1.0, size=(3, 4, 10, 10))
        qp_w = odq_weight_qparams(w, 4)
        qp_a = affine_qparams(float(x.min()), float(x.max()), 4)
        args = (x, w, None, 1, 1, 0.3, qp_a, qp_w)
        plain = odq.odq_mixed_conv(*args)
        seen = []
        image_cols = ColumnCache.image_cols

        def spy(cache, i, high=False):
            cols = image_cols(cache, i, high)
            if not high:
                seen.append(np.shares_memory(cols, cache.cols))
            return cols

        monkeypatch.setattr(ColumnCache, "image_cols", spy)
        cached = odq.odq_mixed_conv(*args, with_cache=True)
        assert seen == [True] * 3
        for key in ("out", "partial", "full"):
            assert np.array_equal(cached[key], plain[key])

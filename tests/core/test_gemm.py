"""repro.core.gemm: bit-exactness, dispatch policy, pool lifecycle.

The contract under test is brutal on purpose: ``pgemm(a, b)`` must be
*bit-identical* to ``a @ b`` (``np.array_equal``, not ``allclose``) for
every operand the conv call sites produce, because the ODQ executors'
sensitivity masks are thresholded on these outputs and a 1-ulp drift
flips mask bits.

Exactness holds *at or above the verified block floor* — that is the
whole point of :attr:`GemmTuning.min_block_mnk` (BLAS small-matrix
kernels round differently, so sub-floor blocks are never dispatched).
The exactness tests therefore size their operands from the live
auto-tuned floor; only the dispatch-accounting tests force tiny blocks,
and those assert stats, not values.
"""

import os

import numpy as np
import pytest

from repro.core import gemm


@pytest.fixture(autouse=True)
def _isolated_gemm_state():
    """Each test starts from unconfigured module state and leaves none."""
    gemm.reset()
    yield
    gemm.reset()


def _verified_parallel(threads: int = 4) -> gemm.GemmTuning:
    """Auto-tune (verifying the block floor), then drop the FLOP
    crossover so moderately-sized test GEMMs take the pooled path."""
    tune = gemm.tuning()
    if not tune.verified:
        pytest.skip("BLAS failed block-exactness verification on this host")
    gemm.configure(threads=threads, min_flops=1.0)
    return gemm.tuning()


def _rows_for(tune: gemm.GemmTuning, k: int, n: int, blocks: int = 3,
              extra: int = 7) -> int:
    """An ``m`` giving ``blocks`` full floor-sized row blocks plus a
    ragged remainder (exercises the uneven divmod bounds)."""
    per_block = max(1, -(-tune.min_block_mnk // (k * n)))
    return blocks * per_block + extra


def _assert_pooled(at_least: int = 1) -> None:
    assert gemm.stats().pooled_calls >= at_least, (
        "test expected the pooled path but pgemm went direct "
        f"(stats={gemm.stats().as_dict()})"
    )


class TestBitExactness:
    """pgemm == a @ b, exactly, via the pooled path."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kn", [(1152, 256), (576, 64), (800, 16)])
    def test_matches_serial_product(self, dtype, kn):
        k, n = kn
        tune = _verified_parallel()
        m = _rows_for(tune, k, n)
        rng = np.random.default_rng(42)
        a = rng.standard_normal((m, k)).astype(dtype)
        b = rng.standard_normal((k, n)).astype(dtype)
        expected = a @ b
        assert np.array_equal(gemm.pgemm(a, b), expected)
        _assert_pooled()

    def test_transposed_operands(self):
        """The QAT backward multiplies ``cols.T @ gmat`` and
        ``gmat @ wmat.T`` — transposed-layout views, not copies."""
        tune = _verified_parallel()
        k, n = 576, 64
        m = _rows_for(tune, k, n)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        expected = a @ b
        assert np.array_equal(gemm.pgemm(np.asfortranarray(a), b), expected)
        assert np.array_equal(gemm.pgemm(a, np.asfortranarray(b)), expected)
        _assert_pooled(2)

    def test_non_contiguous_slices(self):
        tune = _verified_parallel()
        k, n = 576, 64
        m = _rows_for(tune, k, n, blocks=2, extra=3)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2 * m, 2 * k))[::2, ::2]   # strided views
        b = rng.standard_normal((2 * k, 3 * n))[::2, ::3]
        assert a.shape == (m, k) and b.shape == (k, n)
        assert np.array_equal(gemm.pgemm(a, b), a @ b)
        _assert_pooled()

    def test_out_parameter_contiguous(self):
        tune = _verified_parallel()
        k, n = 576, 64
        m = _rows_for(tune, k, n, blocks=2, extra=1)
        rng = np.random.default_rng(9)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        out = np.empty((m, n))
        ret = gemm.pgemm(a, b, out=out)
        assert ret is out
        assert np.array_equal(out, a @ b)
        _assert_pooled()

    def test_out_parameter_wrong_dtype_copies(self):
        tune = _verified_parallel()
        k, n = 576, 64
        m = _rows_for(tune, k, n, blocks=2, extra=1)
        rng = np.random.default_rng(9)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        out = np.empty((m, n), dtype=np.float64)  # not the result dtype
        ret = gemm.pgemm(a, b, out=out)
        assert ret is out
        assert np.array_equal(out.astype(np.float32), a.astype(np.float32) @ b)

    def test_verified_floor_blocks_match_monolithic(self):
        """At the auto-tuned (verified) floor, row-slice GEMMs reproduce
        the full GEMM bit-for-bit — the property the tuner asserts."""
        tune = gemm.tuning()
        if not tune.verified:
            pytest.skip("BLAS failed exactness verification on this host")
        rng = np.random.default_rng(11)
        k, n = 1152, 256
        bh = max(1, -(-tune.min_block_mnk // (k * n)))
        m = 2 * bh + 5
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        full = a @ b
        assert np.array_equal(a[:bh] @ b, full[:bh])
        assert np.array_equal(a[bh:] @ b, full[bh:])


class TestDispatchPolicy:
    def test_single_thread_is_passthrough(self):
        gemm.configure(threads=1)
        a = np.random.default_rng(0).standard_normal((512, 512))
        b = np.random.default_rng(1).standard_normal((512, 512))
        assert np.array_equal(gemm.pgemm(a, b), a @ b)
        s = gemm.stats()
        assert s.pooled_calls == 0 and s.direct_calls == s.calls == 1

    def test_small_gemm_stays_direct(self):
        gemm.configure(threads=4, min_flops=1e12)  # nothing qualifies
        a = np.ones((64, 64))
        assert np.array_equal(gemm.pgemm(a, a), a @ a)
        assert gemm.stats().pooled_calls == 0

    def test_large_gemm_is_pooled(self):
        # Stats only — forcing min_block_mnk=1 may change BLAS kernels.
        gemm.configure(threads=4, min_flops=1.0, min_block_mnk=1)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((256, 64))
        b = rng.standard_normal((64, 32))
        gemm.pgemm(a, b)
        s = gemm.stats()
        assert s.pooled_calls == 1
        assert s.pooled_rows == 256
        assert 2 <= s.pooled_blocks <= 4

    def test_block_floor_limits_split(self):
        """nblocks = mnk // min_block_mnk: a GEMM worth just under two
        floors must not split at all."""
        gemm.configure(threads=8, min_flops=1.0, min_block_mnk=64 * 64 * 33)
        a = np.ones((64, 64))
        gemm.pgemm(a, a)  # mnk = 64^3 < 2 * floor
        assert gemm.stats().pooled_calls == 0

    @pytest.mark.parametrize(
        "a,b",
        [
            (np.ones((4, 4), dtype=np.int64), np.ones((4, 4), dtype=np.int64)),
            (np.ones((4, 4), dtype=np.float32), np.ones((4, 4))),  # mixed
            (np.ones((2, 3, 4)), np.ones((4, 5))),                 # 3-D
        ],
    )
    def test_unsupported_operands_fall_back(self, a, b):
        gemm.configure(threads=4, min_flops=1.0, min_block_mnk=1)
        expected = a @ b
        assert np.array_equal(gemm.pgemm(a, b), expected)
        assert gemm.stats().pooled_calls == 0

    def test_shape_mismatch_raises_like_matmul(self):
        gemm.configure(threads=4, min_flops=1.0, min_block_mnk=1)
        with pytest.raises(ValueError):
            gemm.pgemm(np.ones((4, 5)), np.ones((6, 4)))


class TestOneRoute:
    """pgemm, a plan's GemmDispatch and a DispatchGroup share route()."""

    @pytest.mark.parametrize(
        "shape,dtype,kind",
        [
            ("conv", np.float64, "rows"),
            ("conv", np.float32, "rows"),
            ((64, 64, 64), np.float64, "direct"),       # under the block floor
            ((1, 4096, 1024), np.float64, "direct"),    # fc, one image
            ((3, 1152, 1000), np.float64, "direct"),    # fc, short m / wide n
            ((96, 64, 32), np.int64, "direct"),         # not a BLAS dtype
        ],
    )
    def test_entry_points_take_the_same_route(self, shape, dtype, kind):
        tune = _verified_parallel()
        if shape == "conv":
            shape = (_rows_for(tune, 576, 64), 576, 64)
        m, k, n = shape
        assert gemm.route(m, k, n, dtype).kind == kind
        rng = np.random.default_rng(21)
        a = (rng.standard_normal((m, k)) * 8).astype(dtype)
        b = (rng.standard_normal((k, n)) * 8).astype(dtype)
        expected = a @ b
        entry_points = {
            "pgemm": gemm.pgemm,
            "plan_gemm": gemm.plan_gemm(m, k, n, dtype).run,
            "group": gemm.DispatchGroup().gemm,
        }
        for label, fn in entry_points.items():
            before = gemm.stats()
            assert np.array_equal(fn(a, b), expected), label
            after = gemm.stats()
            pooled = after.pooled_calls - before.pooled_calls
            direct = after.direct_calls - before.direct_calls
            assert (pooled, direct) == ((1, 0) if kind == "rows" else (0, 1)), label

    def test_plan_routes_follow_later_configure(self):
        """A plan's dispatch and group read the live pool width: after
        configure(threads=1) nothing pools (no pool rebuild churn)."""
        gemm.configure(threads=2, min_flops=1, min_block_mnk=1)
        dispatch = gemm.plan_gemm(64, 32, 16, np.float64)
        group = gemm.DispatchGroup()
        assert dispatch.kind == "rows"
        gemm.configure(threads=1)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((64, 32))
        b = rng.standard_normal((32, 16))
        gemm.reset_stats()
        dispatch.run(a, b)
        group.gemm(a, b)
        s = gemm.stats()
        assert s.pooled_calls == 0
        assert s.direct_calls == s.calls == 2


class TestConfiguration:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GEMM_THREADS", "3")
        gemm.reset()  # drop any configure() from previous asserts
        assert gemm.default_threads() == 3
        assert gemm.gemm_threads() == 3

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_GEMM_THREADS", "lots")
        with pytest.raises(ValueError):
            gemm.default_threads()

    def test_configure_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GEMM_THREADS", "2")
        gemm.configure(threads=5)
        assert gemm.gemm_threads() == 5

    def test_configure_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gemm.configure(threads=0)

    def test_tuning_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_GEMM_MIN_FLOPS", "123.0")
        monkeypatch.setenv("REPRO_GEMM_MIN_BLOCK_MNK", "77")
        gemm.reset()
        t = gemm.tuning()
        assert t.min_flops == 123.0
        assert t.min_block_mnk == 77

    def test_default_threads_capped(self, monkeypatch):
        monkeypatch.delenv("REPRO_GEMM_THREADS", raising=False)
        assert 1 <= gemm.default_threads() <= gemm.DEFAULT_MAX_THREADS


class TestPoolLifecycle:
    def test_restart_after_shutdown(self):
        tune = _verified_parallel(threads=2)
        k, n = 576, 64
        m = _rows_for(tune, k, n, blocks=2, extra=1)
        rng = np.random.default_rng(13)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        expected = a @ b
        assert np.array_equal(gemm.pgemm(a, b), expected)
        gemm.shutdown()
        # Pool restarts lazily on the next call, result still exact.
        assert np.array_equal(gemm.pgemm(a, b), expected)
        assert gemm.stats().pooled_calls == 2

    def test_fork_detection_rebuilds_pool(self):
        """After fork the parent's worker threads don't exist; the child
        must rebuild the pool instead of queueing to dead workers."""
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        tune = _verified_parallel(threads=2)
        k, n = 576, 64
        m = _rows_for(tune, k, n, blocks=2, extra=1)
        rng = np.random.default_rng(17)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        expected = a @ b
        gemm.pgemm(a, b)  # pool running pre-fork
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            try:
                ok = (
                    np.array_equal(gemm.pgemm(a, b), expected)
                    and gemm.stats().pooled_calls >= 1
                )
                os.write(w, b"1" if ok else b"0")
            finally:
                os._exit(0)
        os.close(w)
        try:
            flag = os.read(r, 1)
        finally:
            os.close(r)
            os.waitpid(pid, 0)
        assert flag == b"1"

    def test_stats_reset(self):
        gemm.configure(threads=2, min_flops=1.0, min_block_mnk=1)
        a = np.random.default_rng(1).standard_normal((64, 64))
        gemm.pgemm(a, a)
        assert gemm.stats().calls == 1
        gemm.reset_stats()
        assert gemm.stats().calls == 0

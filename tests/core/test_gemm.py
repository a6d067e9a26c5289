"""repro.core.gemm: the one GEMM entry point and its plan bindings.

The contract under test is brutal on purpose: ``pgemm(a, b)`` must be
*bit-identical* to ``a @ b`` (``np.array_equal``, not ``allclose``) for
every operand the conv call sites produce, because the ODQ executors'
sensitivity masks are thresholded on these outputs and a 1-ulp drift
flips mask bits.  A plan's :class:`~repro.core.gemm.GemmDispatch` and a
:class:`~repro.core.gemm.DispatchGroup` must equal ``pgemm`` too.
"""

import math

import numpy as np
import pytest

from repro.core import gemm


@pytest.fixture(autouse=True)
def _fresh_stats():
    """Each test starts from zeroed call counters and leaves none."""
    gemm.reset_stats()
    yield
    gemm.reset_stats()


def _operands(m, k, n, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((m, k)) * 8).astype(dtype)
    b = (rng.standard_normal((k, n)) * 8).astype(dtype)
    return a, b


class TestBitExactness:
    """pgemm == a @ b, exactly."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kn", [(1152, 256), (576, 64), (800, 16)])
    def test_matches_serial_product(self, dtype, kn):
        k, n = kn
        a, b = _operands(37, k, n, dtype, seed=42)
        assert np.array_equal(gemm.pgemm(a, b), a @ b)

    def test_transposed_operands(self):
        """The QAT backward multiplies ``cols.T @ gmat`` and
        ``gmat @ wmat.T`` — transposed-layout views, not copies."""
        a, b = _operands(96, 576, 64, seed=7)
        expected = a @ b
        assert np.array_equal(gemm.pgemm(np.asfortranarray(a), b), expected)
        assert np.array_equal(gemm.pgemm(a, np.asfortranarray(b)), expected)

    def test_non_contiguous_slices(self):
        rng = np.random.default_rng(3)
        m, k, n = 45, 576, 64
        a = rng.standard_normal((2 * m, 2 * k))[::2, ::2]   # strided views
        b = rng.standard_normal((2 * k, 3 * n))[::2, ::3]
        assert a.shape == (m, k) and b.shape == (k, n)
        assert np.array_equal(gemm.pgemm(a, b), a @ b)

    def test_out_parameter_contiguous(self):
        a, b = _operands(33, 576, 64, seed=9)
        out = np.empty((33, 64))
        ret = gemm.pgemm(a, b, out=out)
        assert ret is out
        assert np.array_equal(out, a @ b)

    def test_out_parameter_wrong_dtype_copies(self):
        a, b = _operands(33, 576, 64, np.float32, seed=9)
        out = np.empty((33, 64), dtype=np.float64)  # not the result dtype
        ret = gemm.pgemm(a, b, out=out)
        assert ret is out
        assert np.array_equal(out.astype(np.float32), a @ b)


class TestDispatchPolicy:
    """Every operand ``matmul`` accepts takes the one path: ``a @ b``."""

    def test_single_thread_is_passthrough(self):
        # The end-to-end benchmark's reference session makes this call.
        gemm.configure(threads=1, min_flops=math.inf,
                       min_block_mnk=gemm.MIN_BLOCK_MNK_FLOOR)
        a, b = _operands(512, 512, 512)
        assert np.array_equal(gemm.pgemm(a, b), a @ b)
        s = gemm.stats()
        assert s.direct_calls == s.calls == 1

    @pytest.mark.parametrize(
        "a,b",
        [
            (np.ones((4, 4), dtype=np.int64), np.ones((4, 4), dtype=np.int64)),
            (np.ones((4, 4), dtype=np.float32), np.ones((4, 4))),  # mixed
            (np.ones((2, 3, 4)), np.ones((4, 5))),                 # 3-D
        ],
    )
    def test_unsupported_operands_fall_back(self, a, b):
        expected = a @ b
        got = gemm.pgemm(a, b)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert gemm.stats().direct_calls == 1

    def test_shape_mismatch_raises_like_matmul(self):
        with pytest.raises(ValueError):
            gemm.pgemm(np.ones((4, 5)), np.ones((6, 4)))


class TestOneRoute:
    """pgemm, a plan's GemmDispatch and a DispatchGroup are one ``a @ b``."""

    @pytest.mark.parametrize(
        "shape,dtype",
        [
            ("conv", np.float64),
            ("conv", np.float32),
            ((64, 64, 64), np.float64),
            ((1, 4096, 1024), np.float64),    # fc, one image
            ((3, 1152, 1000), np.float64),    # fc, short m / wide n
            ((96, 64, 32), np.int64),         # not a BLAS dtype
        ],
    )
    def test_entry_points_take_the_same_route(self, shape, dtype):
        m, k, n = (96, 576, 64) if shape == "conv" else shape  # conv: im2col rows
        a, b = _operands(m, k, n, dtype, seed=21)
        expected = gemm.pgemm(a, b)
        assert np.array_equal(expected, a @ b)
        entry_points = {
            "plan_gemm": gemm.plan_gemm(m, k, n, dtype).run,
            "group": gemm.DispatchGroup().gemm,
        }
        for label, fn in entry_points.items():
            assert np.array_equal(fn(a, b), expected), label
            out = np.empty_like(expected)
            assert fn(a, b, out) is out, label
            assert np.array_equal(out, expected), label
        s = gemm.stats()
        assert s.calls == s.direct_calls == 5
        assert s.planned_calls == 2

    def test_dispatch_falls_back_on_shape_mismatch(self):
        """A dispatch bound for one shape still multiplies any other
        shape correctly, via pgemm, without counting it as planned."""
        dispatch = gemm.plan_gemm(8, 16, 4, np.float64)
        a, b = _operands(5, 16, 3, seed=4)
        assert np.array_equal(dispatch.run(a, b), a @ b)
        a32, b32 = _operands(8, 16, 4, np.float32, seed=4)  # bound shape, other dtype
        assert np.array_equal(dispatch.run(a32, b32), a32 @ b32)
        s = gemm.stats()
        assert s.calls == 2 and s.planned_calls == 0


class TestConfiguration:
    def test_configure_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gemm.configure(threads=0)

    def test_configure_accepts_only_one_thread(self):
        gemm.configure()
        gemm.configure(threads=1)
        with pytest.raises(ValueError, match="None or 1"):
            gemm.configure(threads=2)


class TestStats:
    def test_stats_reset(self):
        a, _ = _operands(64, 64, 64, seed=1)
        gemm.pgemm(a, a)
        assert gemm.stats().calls == 1
        gemm.reset_stats()
        assert gemm.stats().calls == 0

    def test_as_dict_keys(self):
        # Read by name by the end-to-end benchmark's launcher.
        assert set(gemm.stats().as_dict()) == {
            "calls", "direct_calls", "planned_calls",
        }

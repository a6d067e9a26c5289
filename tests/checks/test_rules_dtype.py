"""DTY1xx fixtures: positive, negative, and noqa-suppressed snippets."""

import textwrap

from repro.checks.engine import run_source


def scan(src, **kw):
    return run_source(textwrap.dedent(src), **kw)


def rules_of(findings):
    return [f.rule for f in findings]


class TestDTY101UnroutedGemm:
    def test_matmul_operator_flagged(self):
        findings = scan("out = a @ b\n")
        assert rules_of(findings) == ["DTY101"]
        assert "pgemm" in findings[0].message

    def test_np_matmul_and_dot_flagged(self):
        src = """
        import numpy as np
        x = np.matmul(a, b)
        y = np.dot(a, b)
        """
        assert rules_of(scan(src)) == ["DTY101", "DTY101"]

    def test_pgemm_call_is_clean(self):
        src = """
        from repro.core.gemm import pgemm
        out = pgemm(a, b)
        """
        assert scan(src) == []

    def test_gemm_module_is_exempt(self):
        assert scan("out = a @ b\n", path="src/repro/core/gemm.py") == []

    def test_noqa_suppresses(self):
        src = "out = x @ w  # repro: noqa[DTY101] — Tensor @ dispatches to pgemm\n"
        assert scan(src) == []


class TestDTY102AstypeDowncast:
    def test_string_dtype_flagged(self):
        findings = scan("q = acc.astype('float32')\n")
        assert rules_of(findings) == ["DTY102"]

    def test_np_attribute_dtype_flagged(self):
        src = """
        import numpy as np
        q = acc.astype(np.int32)
        """
        assert rules_of(scan(src)) == ["DTY102"]

    def test_wide_dtypes_clean(self):
        src = """
        import numpy as np
        a = x.astype(np.float64)
        b = x.astype('int64')
        c = x.astype(np.uint64)
        """
        assert scan(src) == []

    def test_noqa_suppresses(self):
        src = "img = frame.astype('uint8')  # repro: noqa[DTY102] — display-only buffer\n"
        assert scan(src) == []


class TestDTY102DtypeKeyword:
    def test_dtype_keyword_gemm_operand_flagged(self):
        src = """
        import numpy as np
        from repro.core.gemm import pgemm
        a = np.ascontiguousarray(cols, dtype=np.float32)
        buf = np.empty((4, 4), dtype='float32')
        out = pgemm(a, w)
        """
        findings = scan(src)
        assert rules_of(findings) == ["DTY102", "DTY102"]
        assert "dtype=float32" in findings[0].message
        assert "exact_gemm_dtype" in findings[0].message

    def test_wide_dtype_keyword_clean(self):
        src = """
        import numpy as np
        a = np.empty(3, dtype=np.float64)
        s = q_high.sum(dtype=np.float64)
        b = np.asarray(x, dtype='int64')
        """
        assert scan(src) == []

    def test_bound_checked_helper_not_flagged(self):
        src = """
        import numpy as np

        def exact_gemm_dtype(k, a_max, w_max):
            return np.zeros(0, dtype=np.float32).astype(np.float32).dtype

        def pack(qw):
            return qw.astype(np.float32)
        """
        findings = scan(src)
        assert rules_of(findings) == ["DTY102"]
        assert findings[0].line == 8

    def test_real_helper_module_clean(self):
        from pathlib import Path

        import repro.core.colcache as colcache

        path = Path(colcache.__file__)
        assert scan(path.read_text(encoding="utf-8"), path=str(path)) == []


#: DTY110 fixture: exact bit planes minted by quantize_tensor, combined
#: by ``{expr}``, then fed to the pgemm sink.
PLANE_FLOW = """
from repro.core.gemm import pgemm


def run(x, w, n, images):
    q_high = quantize_tensor(x)
    q_low = quantize_tensor(x)
    cols_low = quantize_tensor(x)
    out = {expr}
    return pgemm(out, w)
"""


def plane_flow(expr):
    return scan(PLANE_FLOW.format(expr=expr))


class TestDTY103BitplaneFloatArith:
    """The bit-plane arithmetic cases of the retired name-heuristic
    DTY103, judged by DTY110's provenance flow: only values minted
    exact and then degraded on their way to a GEMM are violations."""

    def test_fractional_constant_times_plane_flagged(self):
        findings = plane_flow("q_high * 0.5")
        assert rules_of(findings) == ["DTY110"]
        # Anchored at the taint point, naming the sink.
        assert findings[0].snippet == "out = q_high * 0.5"
        assert "pgemm" in findings[0].message

    def test_division_on_plane_flagged(self):
        findings = plane_flow("cols_low / n")
        assert rules_of(findings) == ["DTY110"]
        assert "division" in findings[0].message

    def test_integral_scale_is_clean(self):
        # Shifting planes by exact powers of two keeps integers exact.
        assert plane_flow("q_high * 4.0 + q_low") == []

    def test_unrelated_names_clean(self):
        # Plain float math with no exact provenance is the fp GEMM path.
        assert plane_flow("images * 0.5") == []

    def test_noqa_suppresses(self):
        expr = "q_high * 0.25  # repro: noqa[DTY110] — explicit dequantize scale"
        assert plane_flow(expr) == []

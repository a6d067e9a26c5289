"""dtype-exactness rules (``DTY``).

Invariant (``src/repro/core/odq.py`` / ``colcache.py``): bit-plane GEMM
operands carry *exact* integers in float64, and every partial product
stays far below 2**53, so the float64 GEMM is exact regardless of
summation order.  Every GEMM goes through **one entry point** —
:func:`repro.core.gemm.pgemm` — the sink DTY110's dtype flow watches,
which is why no GEMM may bypass it and why nothing may silently narrow
a quantized array's dtype.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.astutil import call_name, terminal_name
from repro.checks.engine import FileContext
from repro.checks.findings import Finding, Severity
from repro.checks.registry import rule

#: Call targets that are a GEMM in disguise.
_GEMM_CALLS = frozenset({"np.matmul", "numpy.matmul", "np.dot", "numpy.dot"})

#: dtype spellings narrower than the float64/int64 exactness contract.
_NARROW_DTYPES = frozenset({
    "float32", "float16", "int32", "int16", "int8",
    "uint8", "uint16", "uint32",
})

#: Identifier prefixes that mark quantized / bit-plane arrays by the
#: project naming convention (colcache.py, odq.py, bitsplit.py).
_BITPLANE_PREFIXES = (
    "q_high", "q_low", "qw", "cols_high", "cols_low", "cols_full",
    "wmat", "hh", "acc2d", "plane",
)


def _is_bitplane_name(node: ast.AST) -> bool:
    name = terminal_name(node)
    return name is not None and name.startswith(_BITPLANE_PREFIXES)


def _narrow_dtype_arg(arg: ast.AST) -> str | None:
    """The narrow dtype named by an ``astype`` argument, if any."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value if arg.value in _NARROW_DTYPES else None
    name = terminal_name(arg)
    return name if name in _NARROW_DTYPES else None


@rule(
    id="DTY101",
    family="dtype",
    severity=Severity.ERROR,
    summary="GEMM call site not routed through repro.core.gemm.pgemm",
    invariant=(
        "repro.core.gemm.pgemm is the one GEMM entry point: the sink "
        "DTY110's dtype flow watches and the call the end-to-end "
        "benchmark's launcher times.  A raw `a @ b` or np.matmul "
        "elsewhere is invisible to both."
    ),
    exempt_paths=("repro/core/gemm.py",),
)
def check_unrouted_gemm(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            yield ctx.finding(
                "DTY101", node,
                "matrix multiply via `@` — route through "
                "repro.core.gemm.pgemm (lazy-import it to avoid the "
                "repro.nn<->repro.core cycle)",
            )
        elif isinstance(node, ast.Call) and call_name(node) in _GEMM_CALLS:
            yield ctx.finding(
                "DTY101", node,
                f"`{call_name(node)}` call site — route through "
                "repro.core.gemm.pgemm, the one GEMM entry point",
            )


@rule(
    id="DTY102",
    family="dtype",
    severity=Severity.ERROR,
    summary="astype down-cast below the float64/int64 exactness contract",
    invariant=(
        "Quantized integer paths accumulate in float64/int64; casting to "
        "float32/int32 or below silently loses the >2**24 / >2**31 "
        "headroom the bit-exactness proofs rely on."
    ),
)
def check_astype_downcast(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
        ):
            continue
        narrow = _narrow_dtype_arg(node.args[0])
        if narrow is not None:
            yield ctx.finding(
                "DTY102", node,
                f"astype({narrow}) narrows below the float64/int64 "
                "contract — keep the wide dtype or justify with a noqa",
            )


@rule(
    id="DTY103",
    family="dtype",
    severity=Severity.ERROR,
    summary="non-integral float arithmetic on a bit-plane array",
    invariant=(
        "Bit-plane arrays (q_high/cols_low/wmat_*/hh*) hold exact "
        "integers in float64; multiplying or offsetting them by a "
        "non-integral float constant destroys exactness before the GEMM."
    ),
)
def check_bitplane_float_arith(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.BinOp):
            continue
        if not isinstance(node.op, (ast.Mult, ast.Add, ast.Sub, ast.Div)):
            continue
        for side, other in ((node.left, node.right), (node.right, node.left)):
            if not _is_bitplane_name(side):
                continue
            if isinstance(node.op, ast.Div):
                yield ctx.finding(
                    "DTY103", node,
                    f"division on bit-plane array "
                    f"`{terminal_name(side)}` leaves the exact-integer "
                    "domain — dequantize via an explicit scale instead",
                )
                break
            if (
                isinstance(other, ast.Constant)
                and isinstance(other.value, float)
                and not float(other.value).is_integer()
            ):
                yield ctx.finding(
                    "DTY103", node,
                    f"float constant {other.value!r} combined with "
                    f"bit-plane array `{terminal_name(side)}` — exact "
                    "integer contract broken (use integral shifts/scales)",
                )
                break


__all__ = [
    "check_unrouted_gemm",
    "check_astype_downcast",
    "check_bitplane_float_arith",
]

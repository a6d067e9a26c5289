"""dtype-exactness rules (``DTY``).

Invariant (``src/repro/core/colcache.py`` / ``odq.py``): GEMM operands
carry *exact* integers, and every partial sum of a reduction of length
``K`` is bounded by ``K * a_max * w_max``.  A float sum of integers is
exact in any summation order while that bound fits the mantissa
(``2**24`` for float32, ``2**53`` for float64), so the GEMM result
cannot depend on how BLAS blocks the reduction.  One helper,
:func:`repro.core.colcache.exact_gemm_dtype`, checks that bound at pack
time and picks the operand dtype; narrowing anywhere else is unchecked
(DTY102).  Every GEMM goes through **one entry point** —
:func:`repro.core.gemm.pgemm` — the sink DTY110's dtype flow watches,
which is why no GEMM may bypass it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.astutil import call_name, enclosing_function, terminal_name
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


def _narrow_dtype_arg(arg: ast.AST) -> str | None:
    """The narrow dtype an ``astype`` argument or ``dtype=`` value spells."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value if arg.value in _NARROW_DTYPES else None
    name = terminal_name(arg)
    return name if name in _NARROW_DTYPES else None


#: The one function allowed to name a narrow dtype: it checks the
#: accumulator bound that makes the narrow GEMM exact.
_BOUND_CHECKED_HELPER = "exact_gemm_dtype"


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
    summary="narrow dtype outside the bound-checked exact_gemm_dtype helper",
    invariant=(
        "A quantized integer GEMM is exact in float32 only while "
        "K*a_max*w_max <= 2**24.  Only repro.core.colcache."
        "exact_gemm_dtype checks that bound, so a float32/int32-or-below "
        "dtype named anywhere else (an astype argument or a dtype= "
        "keyword) narrows without the check."
    ),
)
def check_narrow_dtype(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        spelled = [
            f"dtype={narrow}"
            for kw in node.keywords
            if kw.arg == "dtype"
            and (narrow := _narrow_dtype_arg(kw.value)) is not None
        ]
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
            and (narrow := _narrow_dtype_arg(node.args[0])) is not None
        ):
            spelled.append(f"astype({narrow})")
        if not spelled:
            continue
        func = enclosing_function(node, ctx.parents)
        if func is not None and func.name == _BOUND_CHECKED_HELPER:
            continue
        for what in spelled:
            yield ctx.finding(
                "DTY102", node,
                f"{what} narrows below float64/int64 without the "
                "accumulator-bound check — take the GEMM dtype from "
                f"repro.core.colcache.{_BOUND_CHECKED_HELPER}",
            )


__all__ = [
    "check_unrouted_gemm",
    "check_narrow_dtype",
]

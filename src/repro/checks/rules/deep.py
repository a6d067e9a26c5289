"""Whole-program (deep) rule registrations: THR210, THR211, DTY110.

These rules need a project-wide view — a symbol table, a call graph,
interprocedural locksets, a dtype-flow lattice — so their logic lives in
:mod:`repro.checks.analysis` and runs under ``repro check --deep``.  The
registrations here are metadata only (severity, invariant text,
``--list-rules`` entries); the per-file ``check`` stubs yield nothing so
a shallow scan is unaffected.

``DTY110`` supersedes the name-heuristic ``DTY103``: when ``--deep`` is
active the engine drops DTY103 from the shallow rule set and relies on
taint provenance instead of identifier conventions.
"""

from __future__ import annotations

from typing import Iterator

from repro.checks.engine import FileContext
from repro.checks.findings import Finding, Severity
from repro.checks.registry import rule

#: Shallow rules a deep run replaces with their whole-program successor.
SUPERSEDED_BY_DEEP: dict[str, str] = {"DTY103": "DTY110"}


@rule(
    id="THR210",
    family="threads",
    severity=Severity.ERROR,
    summary="shared state written from >=2 thread roots with no common lock",
    invariant=(
        "Every module-level mutable reachable from two thread roots (or a "
        "thread root plus main) must have one lock that every write path "
        "holds — locks acquired in callers count (Eraser-style lockset "
        "intersection over the call graph)."
    ),
    deep=True,
)
def check_inconsistent_lockset(ctx: FileContext) -> Iterator[Finding]:
    """Stub — implemented in repro.checks.analysis.lockset."""
    return iter(())


@rule(
    id="THR211",
    family="threads",
    severity=Severity.ERROR,
    summary="lock-order inversion (ABBA cycle in the acquired-before graph)",
    invariant=(
        "If thread 1 takes A then B (possibly through a call chain) and "
        "thread 2 takes B then A, both can block forever; the "
        "acquired-before graph over canonical locks must stay acyclic."
    ),
    deep=True,
)
def check_lock_order_inversion(ctx: FileContext) -> Iterator[Finding]:
    """Stub — implemented in repro.checks.analysis.lockset."""
    return iter(())


@rule(
    id="DTY110",
    family="dtype",
    severity=Severity.ERROR,
    summary="tainted value reaches a GEMM operand across function boundaries",
    invariant=(
        "A value minted exact (quantize/bit-split/rint/astype(int64)) "
        "that is narrowed, divided, or combined with a non-integral float "
        "anywhere along its flow must never reach pgemm/plan_gemm — the "
        "float64 GEMM is exact only for exact-integer operands.  "
        "Supersedes the DTY103 name heuristic under --deep."
    ),
    deep=True,
)
def check_dtype_flow(ctx: FileContext) -> Iterator[Finding]:
    """Stub — implemented in repro.checks.analysis.dtypeflow."""
    return iter(())


__all__ = [
    "SUPERSEDED_BY_DEEP",
    "check_inconsistent_lockset",
    "check_lock_order_inversion",
    "check_dtype_flow",
]

"""Whole-program rule registrations: THR201, THR210, THR211, DTY110.

These rules need a project-wide view — a symbol table, a call graph,
interprocedural locksets, a dtype-flow lattice — so their logic lives in
:mod:`repro.checks.analysis` and runs in every ``repro check``.  The
registrations here are metadata only (severity, invariant text,
``--list-rules`` and SARIF entries); they carry no per-file check.

``DTY110`` judges bit-plane arithmetic (``q_high * 0.5``, ``cols / n``)
by where a value was minted exact, not by what it is called.
"""

from __future__ import annotations

from repro.checks.findings import Severity
from repro.checks.registry import Rule, register

register(Rule(
    id="THR201",
    family="threads",
    severity=Severity.ERROR,
    summary="module-level mutable state written with no lock held",
    invariant=(
        "Process-wide singletons (gemm call stats, logger registry, "
        "logging config) are shared by serving worker threads; every "
        "write must hold the owning lock — in a `with <lock>:` block or "
        "through every resolved caller — as repro.core.gemm and "
        "repro.obs.log do."
    ),
))

register(Rule(
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
))

register(Rule(
    id="THR211",
    family="threads",
    severity=Severity.ERROR,
    summary="lock-order inversion (ABBA cycle in the acquired-before graph)",
    invariant=(
        "If thread 1 takes A then B (possibly through a call chain) and "
        "thread 2 takes B then A, both can block forever; the "
        "acquired-before graph over canonical locks must stay acyclic."
    ),
))

register(Rule(
    id="DTY110",
    family="dtype",
    severity=Severity.ERROR,
    summary="tainted value reaches a GEMM operand across function boundaries",
    invariant=(
        "A value minted exact (quantize/bit-split/rint/astype(int64)) "
        "that is narrowed, divided, or combined with a non-integral float "
        "anywhere along its flow must never reach pgemm/plan_gemm — the "
        "float GEMM is exact only for exact-integer operands."
    ),
))

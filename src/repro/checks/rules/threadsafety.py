"""Per-file thread-safety rule (``THR202``).

Invariant (``src/repro/core/gemm.py``, ``repro/obs/log.py``,
``repro/serve/``): process-wide singletons — the GEMM call counters,
the logging config, metric registries — are shared across serving
worker threads, so every manual ``acquire`` must have a guaranteed
``release``.  The lock discipline of module-level state itself (THR201,
THR210, THR211) needs the call graph and lives in
:mod:`repro.checks.analysis.lockset`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.astutil import is_lockish
from repro.checks.engine import FileContext
from repro.checks.findings import Finding, Severity
from repro.checks.registry import rule


def _try_releases(try_node: ast.Try) -> bool:
    for stmt in try_node.finalbody:
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "release"
            ):
                return True
    return False


def _followed_by_releasing_try(call: ast.Call, ctx: FileContext) -> bool:
    """``lock.acquire()`` immediately followed by ``try/.../finally: release``."""
    stmt = ctx.parents.get(call)
    if not isinstance(stmt, ast.Expr):
        return False
    owner = ctx.parents.get(stmt)
    for body in ("body", "orelse", "finalbody"):
        stmts = getattr(owner, body, None)
        if isinstance(stmts, list) and stmt in stmts:
            idx = stmts.index(stmt)
            if idx + 1 < len(stmts) and isinstance(stmts[idx + 1], ast.Try):
                return _try_releases(stmts[idx + 1])
    return False


@rule(
    id="THR202",
    family="threads",
    severity=Severity.ERROR,
    summary="lock.acquire() without context manager or try/finally release",
    invariant=(
        "An exception between acquire() and release() deadlocks every "
        "other serving thread; locks are taken with `with lock:` or an "
        "immediately-following try/finally."
    ),
)
def check_bare_acquire(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
            and is_lockish(node.func.value)
        ):
            continue
        # acquire() inside a try whose finally releases is also fine.
        protected = False
        cur = ctx.parents.get(node)
        while cur is not None and not isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
        ):
            if isinstance(cur, ast.Try) and _try_releases(cur):
                protected = True
                break
            cur = ctx.parents.get(cur)
        if protected or _followed_by_releasing_try(node, ctx):
            continue
        yield ctx.finding(
            "THR202", node,
            "lock.acquire() without `with lock:` or a try/finally "
            "release — an exception here deadlocks the other threads",
        )


__all__ = ["check_bare_acquire"]

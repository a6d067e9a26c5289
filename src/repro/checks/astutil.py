"""Shared AST helpers for the :mod:`repro.checks` rules.

Everything here is purely syntactic — the analyzer has no type
information, so rules trade on the project's strong naming and structural
conventions (lock names contain ``lock``, bit-plane arrays are named
``q_high``/``cols_low``/``wmat_*``, spans come from ``*.span(...)``).
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator

FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """child node -> parent node for the whole tree."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def ancestors(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> Iterator[ast.AST]:
    """The chain of enclosing nodes, innermost first."""
    cur = parents.get(node)
    while cur is not None:
        yield cur
        cur = parents.get(cur)


def enclosing_function(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """The innermost function containing ``node`` (None at module scope)."""
    for anc in ancestors(node, parents):
        if isinstance(anc, FunctionNode):
            return anc
    return None


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> str | None:
    """Dotted name of a call's callee (``np.matmul``), else None."""
    return dotted_name(call.func)


def terminal_name(node: ast.AST) -> str | None:
    """The last identifier of a Name/Attribute (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_lockish(node: ast.AST) -> bool:
    """Does the expression syntactically look like a lock object?

    True when any identifier along the Name/Attribute chain contains
    ``lock`` (case-insensitive): ``_state_lock``, ``self._lock``,
    ``_CONFIG.lock``, ``REGISTRY_LOCK`` all qualify.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "lock" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "lock" in sub.attr.lower():
            return True
    return False


def mentions(node: ast.AST, pred: Callable[[ast.AST], bool]) -> bool:
    """Does any sub-node satisfy ``pred``?"""
    return any(pred(sub) for sub in ast.walk(node))


def _is_emptiness_probe(sub: ast.AST) -> bool:
    """``x.any()`` / ``x.size`` / ``len(x)`` / ``x.total``-style tests."""
    if isinstance(sub, ast.Attribute) and sub.attr in ("size", "any", "shape", "total"):
        return True
    if isinstance(sub, ast.Call):
        name = dotted_name(sub.func)
        if name == "len":
            return True
        if isinstance(sub.func, ast.Attribute) and sub.func.attr == "any":
            return True
    return False


def has_emptiness_guard(
    func: ast.FunctionDef | ast.AsyncFunctionDef | None,
    node: ast.AST,
    parents: dict[ast.AST, ast.AST],
) -> bool:
    """Is the call site plausibly guarded against empty operands?

    Accepted guards (deliberately coarse — this is a lint, not a prover):

    * the node sits inside a conditional expression (``x if t else y``);
    * any ``if``/``assert``/``while`` test in the enclosing function
      probes emptiness (``.any()``, ``.size``, ``len(...)``) — covering
      both early-return and wrapping-if patterns;
    * the node sits under ``with np.errstate(...)``.
    """
    for anc in ancestors(node, parents):
        if isinstance(anc, ast.IfExp):
            return True
        if isinstance(anc, ast.With):
            for item in anc.items:
                if (
                    isinstance(item.context_expr, ast.Call)
                    and (call_name(item.context_expr) or "").endswith("errstate")
                ):
                    return True
        if isinstance(anc, FunctionNode):
            break
    if func is None:
        return False
    for sub in ast.walk(func):
        test = None
        if isinstance(sub, (ast.If, ast.IfExp, ast.While)):
            test = sub.test
        elif isinstance(sub, ast.Assert):
            test = sub.test
        if test is not None and mentions(test, _is_emptiness_probe):
            return True
    return False


def under_errstate(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """Is ``node`` inside a ``with np.errstate(...):`` block?"""
    for anc in ancestors(node, parents):
        if isinstance(anc, ast.With):
            for item in anc.items:
                if (
                    isinstance(item.context_expr, ast.Call)
                    and (call_name(item.context_expr) or "").endswith("errstate")
                ):
                    return True
    return False


__all__ = [
    "FunctionNode",
    "parent_map",
    "ancestors",
    "enclosing_function",
    "dotted_name",
    "call_name",
    "terminal_name",
    "is_lockish",
    "mentions",
    "has_emptiness_guard",
    "under_errstate",
]

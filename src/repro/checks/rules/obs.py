"""Observability-discipline rules (``OBS``).

Invariants (``src/repro/obs/``): all human/machine output flows through
``repro.obs.log`` (``console()`` for user-facing text, loggers for
diagnostics) so ``--log-json`` runs stay machine-parsable; tracer spans
are opened with ``with trace.span(...)`` so they always close (an
unbalanced span corrupts the thread-local stack and every nesting
depth after it); span counters are recorded while the span is open;
request-path spans in serving code run under an active
``TraceContext`` so each request's trace has no orphans.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.astutil import (
    ancestors,
    dotted_name,
    enclosing_function,
    terminal_name,
)
from repro.checks.engine import FileContext
from repro.checks.findings import Finding, Severity
from repro.checks.registry import rule

_STREAM_WRITES = frozenset({"sys.stdout", "sys.stderr"})


@rule(
    id="OBS301",
    family="obs",
    severity=Severity.ERROR,
    summary="bare print()/sys.stdout.write in src/ — use repro.obs.log",
    invariant=(
        "All output flows through repro.obs.log (console() or a logger) "
        "so --log-json runs emit only machine-parsable lines and CLI "
        "tables survive redirection; a stray print() corrupts both."
    ),
    exempt_paths=("repro/obs/log.py",),  # the console() implementation
)
def check_bare_print(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield ctx.finding(
                "OBS301", node,
                "bare print() — use repro.obs.log.console() (user-facing) "
                "or get_logger(...) (diagnostics)",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "write"
            and dotted_name(node.func.value) in _STREAM_WRITES
        ):
            yield ctx.finding(
                "OBS301", node,
                f"direct {dotted_name(node.func.value)}.write() — route "
                "through repro.obs.log so JSON mode stays parsable",
            )


def _is_with_context(call: ast.Call, ctx: FileContext) -> bool:
    parent = ctx.parents.get(call)
    return isinstance(parent, ast.withitem) and parent.context_expr is call


@rule(
    id="OBS302",
    family="obs",
    severity=Severity.ERROR,
    summary="tracer span not opened via `with` (unbalanced span risk)",
    invariant=(
        "_ActiveSpan pushes onto a thread-local stack on __enter__ and "
        "pops on __exit__; a span held outside `with` can leak an entry "
        "and mis-parent every later span on that thread."
    ),
    exempt_paths=("repro/obs/trace.py",),  # the implementation itself
)
def check_span_without_with(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and terminal_name(node.func) == "span"
        ):
            continue
        if _is_with_context(node, ctx):
            continue
        yield ctx.finding(
            "OBS302", node,
            "span(...) result used outside a `with` statement — open "
            "spans as `with trace.span(...) as sp:` so they always close",
        )


def _span_bindings(
    func: ast.AST,
) -> dict[str, list[ast.With]]:
    """``with *.span(...) as NAME`` bindings inside one function."""
    bindings: dict[str, list[ast.With]] = {}
    for node in ast.walk(func):
        if not isinstance(node, ast.With):
            continue
        for item in node.items:
            if (
                isinstance(item.context_expr, ast.Call)
                and terminal_name(item.context_expr.func) == "span"
                and isinstance(item.optional_vars, ast.Name)
            ):
                bindings.setdefault(item.optional_vars.id, []).append(node)
    return bindings


@rule(
    id="OBS303",
    family="obs",
    severity=Severity.ERROR,
    summary="span counter recorded outside the span's `with` block",
    invariant=(
        "sp.add()/sp.set() after __exit__ mutates a record that was "
        "already emitted (or silently hits the shared NOOP_SPAN); "
        "counters must be recorded while the span is open."
    ),
    exempt_paths=("repro/obs/trace.py",),
)
def check_counter_outside_span(ctx: FileContext) -> Iterator[Finding]:
    funcs = [
        n for n in ast.walk(ctx.tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for func in funcs:
        bindings = _span_bindings(func)
        if not bindings:
            continue
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("add", "set")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in bindings
            ):
                continue
            # Only flag if this call belongs to *this* function (not a
            # nested one that re-walks would also visit).
            if enclosing_function(node, ctx.parents) is not func:
                continue
            withs = bindings[node.func.value.id]
            if any(anc in withs for anc in ancestors(node, ctx.parents)):
                continue
            yield ctx.finding(
                "OBS303", node,
                f"`{node.func.value.id}.{node.func.attr}(...)` outside "
                "the `with` block that opened the span — record counters "
                "before the span closes",
            )


#: Directories whose spans sit on the request path and must parent into
#: the distributed trace (see ``repro.obs.trace.TraceContext``).
_REQUEST_PATH_DIRS = ("repro/serve/",)

#: Calls that establish the active trace context in a function.
_CONTEXT_CALLS = frozenset({"activate", "request_context"})


@rule(
    id="OBS304",
    family="obs",
    severity=Severity.ERROR,
    summary="request-path span opened without an active TraceContext",
    invariant=(
        "Spans in serving request-handling code must run under the "
        "request's TraceContext — minted with request_context() at the "
        "edge or re-activated with activate(ctx) past a thread hop — or "
        "they surface as orphan roots in the request's trace."
    ),
    exempt_paths=(
        # Build-time spans (session construction), not request handling.
        "repro/serve/session.py",
    ),
)
def check_span_without_trace_context(ctx: FileContext) -> Iterator[Finding]:
    if not any(d in ctx.posix_path for d in _REQUEST_PATH_DIRS):
        return
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and terminal_name(node.func) == "span"
        ):
            continue
        func = enclosing_function(node, ctx.parents)
        if func is None:
            continue
        establishes = any(
            isinstance(n, ast.Call)
            and terminal_name(n.func) in _CONTEXT_CALLS
            for n in ast.walk(func)
        )
        if establishes:
            continue
        yield ctx.finding(
            "OBS304", node,
            "span(...) on the request path without an active TraceContext "
            "— mint one with trace.request_context(...) at the edge or "
            "re-activate the request's context with activate(ctx) first",
        )


__all__ = [
    "check_bare_print",
    "check_span_without_with",
    "check_counter_outside_span",
    "check_span_without_trace_context",
]

"""Thread-safety rules (``THR``).

Invariants (``src/repro/core/gemm.py``, ``repro/obs/log.py``,
``repro/serve/``): process-wide singletons — the GEMM call counters,
the logging config, metric registries — are shared across serving
worker threads.  Every mutation of module-level mutable state must
happen under its owning lock, every manual ``acquire`` must have a
guaranteed ``release``, and any module-level thread pool must rebuild
itself after ``fork`` (compare ``os.getpid()`` against the pid recorded
at construction).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.astutil import enclosing_function, in_with_lock, is_lockish, terminal_name
from repro.checks.engine import FileContext
from repro.checks.findings import Finding, Severity
from repro.checks.registry import rule

#: Factory callees whose results are immutable (or self-synchronized) —
#: module-level bindings of these are not "mutable state".
_IMMUTABLE_FACTORIES = frozenset({
    "frozenset", "tuple", "int", "float", "str", "bool", "bytes",
    "compile",            # re.compile
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "local",     # threading.* primitives / thread-local
    "get_logger",         # repro.obs.log loggers are immutable
    "namedtuple", "TypeVar", "getenv", "get", "Path", "getLogger",
})

#: Methods that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "add", "update", "clear", "pop", "popitem",
    "popleft", "appendleft", "remove", "discard", "insert", "setdefault",
    "move_to_end", "sort", "reverse",
})

_POOL_FACTORIES = ("ThreadPoolExecutor", "ProcessPoolExecutor", "ThreadPool",
                   "Pool")


def _module_mutable_names(tree: ast.Module) -> dict[str, int]:
    """Module-level names bound to mutable initializers -> def line."""
    tracked: dict[str, int] = {}
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        mutable = False
        if isinstance(value, (ast.Dict, ast.List, ast.Set,
                              ast.ListComp, ast.DictComp, ast.SetComp)):
            mutable = True
        elif isinstance(value, ast.Call):
            callee = terminal_name(value.func)
            mutable = callee is not None and callee not in _IMMUTABLE_FACTORIES
        if not mutable:
            continue
        for t in targets:
            if (
                isinstance(t, ast.Name)
                and not t.id.startswith("__")
                and "lock" not in t.id.lower()
            ):
                tracked[t.id] = stmt.lineno
    return tracked


def _mutated_name(node: ast.AST, tracked: dict[str, int]) -> str | None:
    """The tracked module-level name this node mutates, if any."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for t in targets:
            if isinstance(t, (ast.Attribute, ast.Subscript)):
                base = t.value
                if isinstance(base, ast.Name) and base.id in tracked:
                    return base.id
            elif (
                isinstance(node, ast.AugAssign)
                and isinstance(t, ast.Name)
                and t.id in tracked
            ):
                return t.id
    elif isinstance(node, ast.Call):
        f = node.func
        if (
            isinstance(f, ast.Attribute)
            and f.attr in _MUTATORS
            and isinstance(f.value, ast.Name)
            and f.value.id in tracked
        ):
            return f.value.id
    elif isinstance(node, ast.Delete):
        for t in node.targets:
            if isinstance(t, (ast.Attribute, ast.Subscript)):
                base = t.value
                if isinstance(base, ast.Name) and base.id in tracked:
                    return base.id
    return None


def _global_rebind(node: ast.AST, tracked: dict[str, int],
                   func: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    """A ``global``-declared rebind of a tracked name inside ``func``."""
    if not isinstance(node, ast.Assign):
        return None
    declared: set[str] = set()
    for sub in ast.walk(func):
        if isinstance(sub, ast.Global):
            declared.update(sub.names)
    for t in node.targets:
        if isinstance(t, ast.Name) and t.id in tracked and t.id in declared:
            return t.id
    # Tuple-unpack rebinds (``a, _x, _y = ..., None, None``).
    for t in node.targets:
        if isinstance(t, ast.Tuple):
            for el in t.elts:
                if isinstance(el, ast.Name) and el.id in tracked and el.id in declared:
                    return el.id
    return None


@rule(
    id="THR201",
    family="threads",
    severity=Severity.ERROR,
    summary="module-level mutable state mutated outside a `with <lock>:` block",
    invariant=(
        "Process-wide singletons (gemm call stats, logger registry, "
        "logging config) are shared by serving worker threads; every "
        "mutation must hold the owning lock, as repro.core.gemm and "
        "repro.obs.log do."
    ),
)
def check_unlocked_module_state(ctx: FileContext) -> Iterator[Finding]:
    tracked = _module_mutable_names(ctx.tree)
    if not tracked:
        return
    for node in ast.walk(ctx.tree):
        func = enclosing_function(node, ctx.parents)
        if func is None:
            continue  # import-time initialization is single-threaded
        name = _mutated_name(node, tracked)
        if name is None:
            name = _global_rebind(node, tracked, func)
        if name is None:
            continue
        if in_with_lock(node, ctx.parents):
            continue
        yield ctx.finding(
            "THR201", node,
            f"module-level mutable `{name}` (defined at line "
            f"{tracked[name]}) mutated outside a `with <lock>:` block — "
            "guard with the owning lock or make it thread-local",
        )


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


@rule(
    id="THR203",
    family="threads",
    severity=Severity.ERROR,
    summary="module-level thread pool without the PID-keyed fork-rebuild pattern",
    invariant=(
        "Worker threads do not survive fork(); a module-global pool must "
        "detect the PID change and rebuild (compare os.getpid() against "
        "the pid recorded at construction), or forked servers hang on a "
        "dead pool."
    ),
)
def check_pool_fork_safety(ctx: FileContext) -> Iterator[Finding]:
    has_getpid = any(
        (isinstance(n, ast.Attribute) and n.attr == "getpid")
        or (isinstance(n, ast.Name) and n.id == "getpid")
        for n in ast.walk(ctx.tree)
    )
    if has_getpid:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not (
            isinstance(node.value, ast.Call)
            and (terminal_name(node.value.func) or "") in _POOL_FACTORIES
        ):
            continue
        func = enclosing_function(node, ctx.parents)
        module_global = func is None
        if func is not None:
            declared: set[str] = set()
            for sub in ast.walk(func):
                if isinstance(sub, ast.Global):
                    declared.update(sub.names)
            module_global = any(
                isinstance(t, ast.Name) and t.id in declared
                for t in node.targets
            )
        if module_global:
            yield ctx.finding(
                "THR203", node,
                "module-global thread pool built without a PID-keyed "
                "fork-rebuild guard — compare os.getpid() against the "
                "pid recorded at construction",
            )


__all__ = [
    "check_unlocked_module_state",
    "check_bare_acquire",
    "check_pool_fork_safety",
]

"""Plan-discipline rules (``PLN``).

Invariant (``src/repro/core/plan.py`` + ``pipeline.py``): the engine's
compiled-plan state is owned by the engine and the plan tracer.  Outside
code may read it, but writing the plan cache or shadowing a module's
``forward`` desynchronizes the plan bookkeeping or silently opts modules
out of plan compilation, and an in-place write to an array a plan or
BatchNorm's eval kernel keys by identity leaves it serving stale values.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.engine import FileContext
from repro.checks.findings import Finding, Severity
from repro.checks.registry import rule

#: Engine attributes that make up the compiled-plan state machine.
_PLAN_STATE_ATTRS = frozenset({"_plans", "_active_plan"})

#: Methods that mutate an OrderedDict (reads like .get/.values are fine).
_MUTATING_METHODS = frozenset({
    "clear", "pop", "popitem", "move_to_end", "update", "setdefault",
})

#: Modules that own the plan cache's lifecycle.
_PLAN_OWNERS = ("repro/core/pipeline.py", "repro/core/plan.py")


@rule(
    id="PLN502",
    family="plan",
    severity=Severity.ERROR,
    summary="engine plan state (_plans/_active_plan) mutated externally",
    invariant=(
        "The plan cache's LRU order, staleness bookkeeping, and "
        "_plan_stats counters are maintained by "
        "QuantizedInferenceEngine._infer_locked and InferencePlan.run "
        "alone; outside writes desynchronize the counters and can leave "
        "_active_plan dangling across inferences.  Reading the state "
        "(describe()/metrics) is fine."
    ),
    exempt_paths=_PLAN_OWNERS,
)
def check_external_plan_state_mutation(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for t in targets:
                if isinstance(t, ast.Attribute) and t.attr in _PLAN_STATE_ATTRS:
                    yield ctx.finding(
                        "PLN502", node,
                        f"assignment to `{t.attr}` outside the engine — "
                        "plan state is owned by pipeline.py/plan.py; use "
                        "engine.infer()/plan_stats() instead",
                    )
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                base = t.value if isinstance(t, ast.Subscript) else t
                if isinstance(base, ast.Attribute) and base.attr in _PLAN_STATE_ATTRS:
                    yield ctx.finding(
                        "PLN502", node,
                        f"del on `{base.attr}` outside the engine — plan "
                        "eviction/invalidation is the engine's job",
                    )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in _PLAN_STATE_ATTRS
        ):
            yield ctx.finding(
                "PLN502", node,
                f"`{node.func.value.attr}.{node.func.attr}(...)` outside "
                "the engine mutates the plan cache behind the LRU/stats "
                "bookkeeping",
            )


@rule(
    id="PLN503",
    family="plan",
    severity=Severity.ERROR,
    summary="instance-level forward shadowing outside the plan tracer",
    invariant=(
        "plan._trace_convs instruments the instrumented convs by "
        "installing an instance `forward` (shadowing the class method) "
        "and refuses to touch convs that already carry one; any other "
        "code installing instance forwards silently opts those convs out "
        "of plan compilation and risks leaking the shadow past its scope."
    ),
    exempt_paths=("repro/core/plan.py",),  # the tracer itself
)
def check_instance_forward_shadowing(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Assign):
            continue
        for t in node.targets:
            shadowed = (
                isinstance(t, ast.Attribute) and t.attr == "forward"
            ) or (
                isinstance(t, ast.Subscript)
                and isinstance(t.value, ast.Attribute)
                and t.value.attr == "__dict__"
                and isinstance(t.slice, ast.Constant)
                and t.slice.value == "forward"
            )
            if shadowed:
                yield ctx.finding(
                    "PLN503", node,
                    "installing an instance-level `forward` — only the "
                    "plan tracer may shadow module forwards (and it "
                    "restores them); shadowed modules are skipped by "
                    "plan compilation",
                )


#: Arrays cached by identity: parameter payloads (``weight.data``,
#: ``bias.data``, ``gamma.data`` ...) and BatchNorm running statistics,
#: which compiled plan steps freeze and BatchNorm2d.eval_kernel derives
#: its constants from.
_FROZEN_ARRAY_ATTRS = frozenset({"data", "running_mean", "running_var"})


def _frozen_array(node: ast.AST) -> str | None:
    """``p.data`` / ``p.data[...]`` (and running stats) -> the attr name."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _FROZEN_ARRAY_ATTRS:
        return node.attr
    return None


@rule(
    id="PLN504",
    family="plan",
    severity=Severity.ERROR,
    summary="in-place write to a parameter or running-stat array",
    invariant=(
        "Two consumers precompute constants from parameter and "
        "BatchNorm running-stat arrays and re-validate them by object "
        "identity only: compiled plan steps (InferencePlan.valid) and "
        "BatchNorm2d's eval-constant cache (BatchNorm2d.eval_kernel).  "
        "An in-place write keeps the identity, so both serve stale "
        "constants.  Rebind instead (p.data = p.data - lr * g), as the "
        "optimizers do."
    ),
)
def check_inplace_frozen_array_write(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Subscript)]
        else:
            continue
        for t in targets:
            attr = _frozen_array(t)
            if attr is not None:
                yield ctx.finding(
                    "PLN504", node,
                    f"in-place write to `.{attr}` — compiled plans and "
                    "BatchNorm2d's eval-constant cache check these arrays "
                    "by identity and would keep serving the old values; "
                    "assign a new array instead",
                )


__all__ = [
    "check_external_plan_state_mutation",
    "check_instance_forward_shadowing",
    "check_inplace_frozen_array_write",
]

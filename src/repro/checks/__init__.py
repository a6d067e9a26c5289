"""repro.checks — project-invariant static analysis.

The codebase's correctness rests on invariants that used to live only in
comments: bit-plane GEMMs carry exact integers in the float dtype their
accumulator bound keeps exact, and every GEMM routes through the one
entry point whose operands the dtype flow checks
(:mod:`repro.core.gemm`); process-wide singletons are lock-guarded; all
output flows through :mod:`repro.obs`; reductions over masked
selections guard against emptiness.  This package turns those
prose invariants into machine-checked rules.

Usage::

    from repro import checks

    findings = checks.run(["src/repro"])           # all rules
    findings = checks.run("src", rules=["DTY101"])  # one rule

or from the CLI: ``repro check [paths] [--rules ...] [--format json]``.

Suppression: ``# repro: noqa[RULE] — <justification>`` on the flagged
line.  The justification is mandatory (enforced by the ``SUP001`` meta
rule) so every suppression documents why the invariant still holds.

Every run is one mode: the per-file rules over each file, then the
whole-program rules (unlocked writes, lockset races, lock-order
inversions, dtype flow) over the call graph of the whole tree — see
:mod:`repro.checks.analysis`.  The analyzer is purely static (stdlib
``ast`` + ``tokenize``), adds zero runtime cost to inference/serving
paths, and is wired into CI as the ``lint`` job next to ruff and mypy.
"""

from repro.checks.engine import run, run_source
from repro.checks.findings import Finding, Severity
from repro.checks.registry import RULES, Rule, families, iter_rules
from repro.checks.report import render_json, render_text

__all__ = [
    "run",
    "run_source",
    "Finding",
    "Severity",
    "Rule",
    "RULES",
    "iter_rules",
    "families",
    "render_text",
    "render_json",
]

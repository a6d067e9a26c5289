"""The analysis driver behind every ``repro check``.

One run =

1. **project build** — parse every file under the scan roots once and
   summarize it, serving summaries from the content-addressed cache when
   the source is unchanged;
2. **per-file rules** — the syntactic rules over each parsed file (in
   ``--changed`` mode, just the changed subset);
3. **whole-program rules** — call graph + thread roots, unlocked writes
   and interprocedural locksets (THR201/THR210/THR211), dtype-exactness
   flow (DTY110), always over the whole tree;
4. **suppression** — every finding obeys the same physical-line
   ``# repro: noqa[RULE] — why`` policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Sequence

from repro.checks.analysis.cache import DEFAULT_CACHE_DIR, SummaryCache
from repro.checks.analysis.callgraph import CallGraph
from repro.checks.analysis.dtypeflow import find_dtype_flow_violations
from repro.checks.analysis.lockset import (
    find_inconsistent_locksets,
    find_lock_order_inversions,
    find_unlocked_writes,
)
from repro.checks.analysis.project import Project
from repro.checks.engine import scan_context, suppression_covers, syntax_finding
from repro.checks.findings import Finding
from repro.checks.registry import iter_rules

#: Whole-program rule id -> the analysis that produces its findings.
_PROGRAM_RULES: dict[str, Callable[[CallGraph], Iterator[Finding]]] = {
    "THR201": find_unlocked_writes,
    "THR210": find_inconsistent_locksets,
    "THR211": find_lock_order_inversions,
    "DTY110": find_dtype_flow_violations,
}


@dataclass
class DeepResult:
    """Findings plus the run's bookkeeping."""

    findings: list[Finding]
    files: int                      #: files parsed (including failures)
    cache_stats: dict[str, int] = field(default_factory=dict)


def _analyze(
    project: Project,
    rules: Iterable[str] | None,
    changed: Collection[str] | None = None,
) -> list[Finding]:
    selected = list(iter_rules(rules))
    keep = None if changed is None else {Path(p).resolve() for p in changed}

    def per_file(path: str) -> bool:
        return keep is None or Path(path).resolve() in keep

    findings = [
        syntax_finding(path, exc)
        for path, exc in project.parse_failures.items() if per_file(path)
    ]
    for path, ctx in project.contexts.items():
        if per_file(path):
            findings.extend(scan_context(ctx, selected))
    programs = [_PROGRAM_RULES[r.id] for r in selected if r.id in _PROGRAM_RULES]
    if programs:
        graph = CallGraph.build(project)
        for analysis in programs:
            for f in analysis(graph):
                ctx = project.contexts.get(f.path)
                if ctx is None:
                    findings.append(f)
                elif not suppression_covers(ctx.suppressions, f):
                    findings.append(replace(f, snippet=ctx.line_text(f.line)))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def run_deep(
    paths: Sequence[str] | str,
    rules: Iterable[str] | None = None,
    changed: Collection[str] | None = None,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
) -> DeepResult:
    """Analyze the files/directories under ``paths``.

    ``changed`` (the ``--changed`` subset) narrows the per-file rules;
    the whole-program rules always see every file.  ``cache_dir`` of
    ``None`` disables the summary cache.
    """
    if isinstance(paths, str):
        paths = [paths]
    cache = SummaryCache(cache_dir) if cache_dir is not None else None
    project = Project.load(paths, cache=cache)
    return DeepResult(
        findings=_analyze(project, rules, changed),
        files=len(project.contexts) + len(project.parse_failures),
        cache_stats=cache.stats() if cache is not None else {},
    )


def run_deep_sources(
    sources: dict[str, str],
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Analyze in-memory ``{path: source}`` (the fixture-test entry point)."""
    return _analyze(Project.from_sources(sources), rules)


__all__ = ["run_deep", "run_deep_sources", "DeepResult"]

"""The per-file half of :mod:`repro.checks`.

Parses a file once into a :class:`FileContext` (AST + parent links +
suppression table), runs the selected per-file rules over it, filters
suppressed findings, and emits meta-findings for malformed
suppressions.  :func:`run` and :func:`run_source` are the public entry
points; both hand over to the driver in
:mod:`repro.checks.analysis.deep`, which adds the whole-program rules.

Suppression syntax
------------------
A finding is suppressed by a same-line comment::

    risky_thing()  # repro: noqa[DTY101] — exact: operands are bool masks

* The rule id in brackets is mandatory — there is no blanket ``noqa``.
* Multiple ids: ``# repro: noqa[DTY101,THR201] — <why>``.
* The justification text after ``—`` (or ``--`` / ``:``) is **required**;
  a bare ``# repro: noqa[X]`` raises :data:`SUP001`, which cannot itself
  be suppressed.  The policy is deliberate: every suppression documents
  *why* the invariant holds anyway, so reviewers can audit them.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.checks.findings import Finding, Severity
from repro.checks.registry import Rule
from repro.checks import astutil

#: Meta-rule id for a suppression comment without a justification.
SUP001 = "SUP001"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<ids>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\]"
    r"\s*(?:(?:—|--|:)\s*(?P<why>\S.*))?"
)


@dataclass
class Suppression:
    """One parsed ``# repro: noqa[...]`` comment."""

    line: int
    rule_ids: tuple
    justification: str


@dataclass
class FileContext:
    """Everything a rule needs to scan one file."""

    path: str                    #: path as reported in findings
    source: str
    tree: ast.Module
    lines: list = field(default_factory=list)
    parents: dict = field(default_factory=dict)
    suppressions: dict = field(default_factory=dict)  #: line -> Suppression
    bad_suppressions: list = field(default_factory=list)

    @property
    def posix_path(self) -> str:
        return Path(self.path).as_posix()

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, rule_id: str, node: ast.AST, message: str, **extra: object
    ) -> Finding:
        """Build a Finding at ``node``'s location for rule ``rule_id``."""
        from repro.checks.registry import RULES

        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule_id,
            severity=RULES[rule_id].severity,
            path=self.path,
            line=line,
            col=col,
            message=message,
            snippet=self.line_text(line),
            extra=dict(extra),
        )

    def is_suppressed(self, finding: Finding) -> bool:
        return suppression_covers(self.suppressions, finding)


def suppression_covers(
    suppressions: dict[int, "Suppression"], finding: Finding
) -> bool:
    """Does a parsed noqa table suppress ``finding``?

    Scope is the **physical line only**: a ``# repro: noqa[RULE]`` on a
    decorator line covers just that line, never the decorated function's
    ``def`` line or body (pinned by the decorator regression fixtures in
    ``tests/checks/test_engine.py``).  Deep (whole-program) findings go
    through this same helper, so an interprocedural THR210/DTY110 report
    is silenced only by a noqa on the exact anchored line.
    """
    sup = suppressions.get(finding.line)
    return sup is not None and finding.rule in sup.rule_ids


def _parse_suppressions(
    source: str,
) -> tuple[dict[int, Suppression], list[Suppression]]:
    """Extract ``# repro: noqa[...]`` comments via the tokenizer.

    Tokenizing (rather than regexing raw lines) keeps ``#`` characters
    inside string literals from being misread as comments.
    """
    table: dict[int, Suppression] = {}
    malformed: list[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if not m:
                continue
            ids = tuple(s.strip() for s in m.group("ids").split(","))
            why = (m.group("why") or "").strip()
            sup = Suppression(line=tok.start[0], rule_ids=ids, justification=why)
            if why:
                table[sup.line] = sup
            else:
                malformed.append(sup)
    except tokenize.TokenError:  # pragma: no cover - unterminated source
        pass
    return table, malformed


def make_context(source: str, path: str = "<string>") -> FileContext:
    """Parse ``source`` into a :class:`FileContext` (raises SyntaxError)."""
    tree = ast.parse(source, filename=path)
    suppressions, malformed = _parse_suppressions(source)
    return FileContext(
        path=path,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        parents=astutil.parent_map(tree),
        suppressions=suppressions,
        bad_suppressions=malformed,
    )


def scan_context(ctx: FileContext, rules: Sequence[Rule]) -> list[Finding]:
    """The per-file rules among ``rules`` over one parsed file, plus SUP001."""
    findings: list[Finding] = []
    # Meta-rule: suppression without justification (never suppressible).
    for sup in ctx.bad_suppressions:
        findings.append(
            Finding(
                rule=SUP001,
                severity=Severity.ERROR,
                path=ctx.path,
                line=sup.line,
                col=0,
                message=(
                    f"noqa[{','.join(sup.rule_ids)}] without a justification — "
                    "append '— <why the invariant holds anyway>'"
                ),
                snippet=ctx.line_text(sup.line),
            )
        )
    for r in rules:
        if r.check is None or not r.applies_to(ctx.posix_path):
            continue
        for f in r.check(ctx):
            if not ctx.is_suppressed(f):
                findings.append(f)
    return findings


def syntax_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule="PARSE000",
        severity=Severity.ERROR,
        path=path,
        line=exc.lineno or 1,
        col=exc.offset or 0,
        message=f"could not parse file: {exc.msg}",
    )


def discover(paths: Sequence[str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for p in paths:
        path = Path(p)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {p}")
        if path.is_dir():
            for f in path.rglob("*.py"):
                if "__pycache__" not in f.parts:
                    out.add(f)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def run(
    paths: Sequence[str] | str,
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Analyze files/directories and return all unsuppressed findings.

    This is the importable API (``repro.checks.run(paths)``): per-file
    and whole-program rules alike, without the summary cache.  The CLI
    is a thin wrapper that renders the result and maps it to an exit
    code.
    """
    from repro.checks.analysis.deep import run_deep

    return run_deep(paths, rules=rules, cache_dir=None).findings


def run_source(
    source: str,
    path: str = "src/repro/_snippet.py",
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Analyze one source string as a one-module project (fixture tests)."""
    from repro.checks.analysis.deep import run_deep_sources

    return run_deep_sources({path: source}, rules=rules)


__all__ = [
    "SUP001",
    "Suppression",
    "FileContext",
    "make_context",
    "suppression_covers",
    "scan_context",
    "syntax_finding",
    "run",
    "run_source",
    "discover",
]

"""Rule registry for :mod:`repro.checks`.

A rule is a plain callable ``check(ctx) -> Iterable[Finding]`` wrapped in
:class:`Rule` metadata (id, family, severity, what invariant it guards,
and which paths are exempt).  Per-file rules self-register at import
time via the :func:`rule` decorator; whole-program rules, whose logic
lives in :mod:`repro.checks.analysis`, register metadata only through
:func:`register`.  :data:`RULES` is the id-ordered registry the engine
and the CLI ``--list-rules`` output read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.checks.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checks.engine import FileContext

CheckFn = Callable[["FileContext"], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered static-analysis rule."""

    id: str                      #: e.g. ``DTY101``
    family: str                  #: ``dtype`` | ``threads`` | ``obs`` | ``numeric`` | ``plan``
    severity: Severity
    summary: str                 #: one-line description for ``--list-rules``
    invariant: str               #: the project invariant the rule protects
    #: The per-file check; ``None`` for a whole-program rule, whose
    #: findings come from :mod:`repro.checks.analysis`.
    check: CheckFn | None = None
    #: Path suffixes (``/``-separated, POSIX style) where the rule does
    #: not apply — e.g. the module that *implements* the guarded API.
    exempt_paths: tuple = field(default=())

    def applies_to(self, posix_path: str) -> bool:
        return not any(posix_path.endswith(sfx) for sfx in self.exempt_paths)


#: id -> Rule, populated by :func:`register` at import time.
RULES: dict[str, Rule] = {}

#: Guards :data:`RULES`.  Registration normally happens under the import
#: lock, but re-imports from worker threads (e.g. a serving process that
#: lazily pulls in ``repro.checks``) must not interleave writes.
_REGISTRY_LOCK = threading.Lock()


def register(r: Rule) -> None:
    """Add ``r`` to :data:`RULES` (a duplicate id raises)."""
    with _REGISTRY_LOCK:
        if r.id in RULES:
            raise ValueError(f"duplicate rule id {r.id!r}")
        RULES[r.id] = r


def rule(
    id: str,
    family: str,
    severity: Severity,
    summary: str,
    invariant: str,
    exempt_paths: tuple = (),
) -> Callable[[CheckFn], CheckFn]:
    """Register ``check`` as a per-file rule; returns it unchanged."""

    def decorate(check: CheckFn) -> CheckFn:
        register(Rule(
            id=id,
            family=family,
            severity=severity,
            summary=summary,
            invariant=invariant,
            check=check,
            exempt_paths=tuple(exempt_paths),
        ))
        return check

    return decorate


def iter_rules(ids: Iterable[str] | None = None) -> Iterator[Rule]:
    """Registered rules in id order; ``ids`` filters (unknown id raises)."""
    _ensure_loaded()
    if ids is None:
        for rid in sorted(RULES):
            yield RULES[rid]
        return
    wanted = list(ids)
    unknown = [rid for rid in wanted if rid not in RULES]
    if unknown:
        raise KeyError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(RULES))}"
        )
    for rid in sorted(set(wanted)):
        yield RULES[rid]


def families() -> dict[str, list[str]]:
    """family -> sorted rule ids (for docs and ``--list-rules``)."""
    _ensure_loaded()
    out: dict[str, list[str]] = {}
    for r in iter_rules():
        out.setdefault(r.family, []).append(r.id)
    return out


def _ensure_loaded() -> None:
    """Import the rule modules exactly once (registration side effect)."""
    import repro.checks.rules  # noqa: F401 — imported for registration side effect


__all__ = ["Rule", "RULES", "register", "rule", "iter_rules", "families"]

"""Eraser-style lockset + lock-order analyses (THR201, THR210, THR211).

All three read the module-state writes and lock acquisitions recorded
in the summaries.  A write's *effective lockset* is the locks
syntactically held at the statement *plus* the writer function's
must-hold entry lockset (locks provably held by every resolved caller —
the interprocedural part).

**THR201 — unlocked write to module-level mutable state.**  Any write
whose effective lockset is empty, whether or not a second thread is
known to reach it: process-wide singletons must be written under their
lock.  One finding per written line.

**THR210 — inconsistent lockset on shared mutable state.**  A
module-level mutable variable written from ≥ 2 distinct thread roots —
or from one thread root plus main-only code — whose write locksets
share **no** common lock is a race: no single lock consistently
protects it.  One finding per variable, anchored at the
least-protected write.

**THR211 — lock-order inversion (static deadlock detector).**  Build the
*acquired-before* graph: an edge ``A -> B`` whenever ``B`` is acquired
while ``A`` is held — directly (nested ``with``), or through a call made
under ``A`` into a callee that (transitively) acquires ``B``.  Any cycle
is a potential ABBA deadlock; one finding per distinct cycle, anchored
at the lexically first acquisition that participates.

THR210 and THR211 only *report* races/cycles whose every lock token is
project-canonical; expression locks that could not be canonicalized
never silence a report but also never fabricate one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.checks.analysis.callgraph import CallGraph
from repro.checks.findings import Finding, Severity


@dataclass
class _WriteSite:
    var: str                       #: fq variable name (``module.name``)
    path: str
    line: int
    defined: int                   #: line of the module-level binding
    func: str                      #: fq function name
    locks: frozenset[str]
    roots: frozenset[str]


def _collect_writes(graph: CallGraph) -> dict[str, list[_WriteSite]]:
    by_var: dict[str, list[_WriteSite]] = {}
    project = graph.project
    for ref, fn in project.iter_functions():
        entry = graph.entry_lockset(ref.fq)
        roots = frozenset(graph.roots_reaching(ref.fq))
        path = project.path_of(ref.module)
        state = project.summaries[ref.module].state
        for w in fn.writes:
            var = f"{ref.module}.{w.name}"
            site = _WriteSite(
                var=var, path=path, line=w.line, defined=state.get(w.name, 0),
                func=ref.fq, locks=frozenset(w.locks) | entry, roots=roots,
            )
            by_var.setdefault(var, []).append(site)
    return by_var


def _fmt_locks(locks: frozenset[str]) -> str:
    return "{" + ", ".join(sorted(locks)) + "}" if locks else "{} (none)"


def find_unlocked_writes(graph: CallGraph) -> Iterator[Finding]:
    """THR201 findings: writes whose effective lockset is empty."""
    for var, sites in sorted(_collect_writes(graph).items()):
        name = var.rsplit(".", 1)[-1]
        for s in sites:
            if s.locks:
                continue
            yield Finding(
                rule="THR201",
                severity=Severity.ERROR,
                path=s.path,
                line=s.line,
                col=0,
                message=(
                    f"module-level mutable `{name}` (defined at line "
                    f"{s.defined}) written with no lock held — no `with "
                    "<lock>:` here and no lock every caller holds; guard "
                    "it with the owning lock or make it thread-local"
                ),
                extra={"var": var},
            )


def find_inconsistent_locksets(graph: CallGraph) -> Iterator[Finding]:
    """THR210 findings over the whole project."""
    for var, sites in sorted(_collect_writes(graph).items()):
        thread_roots = frozenset().union(*(s.roots for s in sites))
        has_main_only_writer = any(not s.roots for s in sites)
        concurrent = len(thread_roots) >= 2 or (
            len(thread_roots) == 1 and has_main_only_writer
        )
        if not concurrent:
            continue
        common = sites[0].locks
        for s in sites[1:]:
            common &= s.locks
        if common:
            continue  # one lock consistently guards every write
        # Anchor at the least-protected write (fewest locks, then first).
        anchor = sorted(sites, key=lambda s: (len(s.locks), s.path, s.line))[0]
        others = [
            f"{s.path}:{s.line} holds {_fmt_locks(s.locks)}"
            for s in sorted(sites, key=lambda s: (s.path, s.line))
            if s is not anchor
        ]
        root_names = ", ".join(sorted(r.rsplit(".", 1)[-1] for r in thread_roots))
        detail = "; ".join(others[:4])
        if len(others) > 4:
            detail += f"; … {len(others) - 4} more"
        yield Finding(
            rule="THR210",
            severity=Severity.ERROR,
            path=anchor.path,
            line=anchor.line,
            col=0,
            message=(
                f"shared mutable `{var}` is written from {len(sites)} site(s) "
                f"reachable from thread root(s) [{root_names}]"
                + (" and main" if has_main_only_writer else "")
                + f" with no common lock — this write holds "
                f"{_fmt_locks(anchor.locks)}"
                + (f"; other writes: {detail}" if detail else "")
            ),
            extra={"var": var, "roots": sorted(thread_roots)},
        )


@dataclass(frozen=True)
class _AcqEdge:
    held: str
    acquired: str
    path: str
    line: int
    via: str                       #: fq function where the edge arises


def _acquired_before_edges(graph: CallGraph) -> list[_AcqEdge]:
    project = graph.project
    edges: dict[tuple[str, str], _AcqEdge] = {}

    def add(held: str, acquired: str, path: str, line: int, via: str) -> None:
        key = (held, acquired)
        if held != acquired and key not in edges:
            edges[key] = _AcqEdge(held, acquired, path, line, via)

    for ref, fn in project.iter_functions():
        path = project.path_of(ref.module)
        entry = graph.entry_lockset(ref.fq)
        # Direct nested acquisitions inside one function.
        for outer, inner, line in fn.acq_pairs:
            add(outer, inner, path, line, ref.fq)
        # Entry locks held around any acquisition in this function.
        for tok in fn.acquires:
            for held in entry:
                add(held, tok, path, fn.line, ref.fq)
        # Locks held at a call site ordered before everything the callee
        # (transitively) acquires.
        for site in fn.calls:
            if not site.locks:
                continue
            callee = project.resolve_call(ref, site.callee)
            if callee is None:
                continue
            for acquired in sorted(graph.transitive_acquires.get(callee.fq, ())):
                for held in site.locks:
                    add(held, acquired, path, site.line, ref.fq)
    return list(edges.values())


def find_lock_order_inversions(graph: CallGraph) -> Iterator[Finding]:
    """THR211 findings: cycles in the acquired-before graph."""
    edges = _acquired_before_edges(graph)
    out: dict[str, list[_AcqEdge]] = {}
    for e in edges:
        out.setdefault(e.held, []).append(e)

    # Enumerate simple cycles by DFS from each node (the graph is tiny —
    # one node per canonical lock).  Deduplicate by the cycle's lock set.
    reported: set[frozenset[str]] = set()
    findings: list[Finding] = []

    def path_back(start: str, frm: str) -> list[_AcqEdge] | None:
        """A path of edges from ``frm`` back to ``start`` (DFS)."""
        stack: list[tuple[str, list[_AcqEdge]]] = [(frm, [])]
        seen: set[str] = set()
        while stack:
            node, trail = stack.pop()
            if node == start:
                return trail
            if node in seen:
                continue
            seen.add(node)
            for e in out.get(node, ()):
                stack.append((e.acquired, trail + [e]))
        return None

    for e in sorted(edges, key=lambda e: (e.path, e.line, e.held, e.acquired)):
        back = path_back(e.held, e.acquired)
        if back is None:
            continue
        cycle = [e] + back
        key = frozenset(x.held for x in cycle)
        if key in reported:
            continue
        reported.add(key)
        order = " -> ".join([c.held for c in cycle] + [e.held])
        sites = "; ".join(
            f"{c.held} then {c.acquired} at {c.path}:{c.line} ({c.via})"
            for c in cycle
        )
        findings.append(
            Finding(
                rule="THR211",
                severity=Severity.ERROR,
                path=e.path,
                line=e.line,
                col=0,
                message=(
                    f"lock-order inversion: {order} — two threads taking "
                    f"these locks in opposite orders can deadlock; "
                    f"acquisitions: {sites}"
                ),
                extra={"cycle": sorted(key)},
            )
        )
    yield from findings


__all__ = [
    "find_unlocked_writes",
    "find_inconsistent_locksets",
    "find_lock_order_inversions",
]

"""Project-wide call graph, thread roots, and lockset propagation.

Built entirely from module summaries (no ASTs), so it runs identically
from the content-addressed cache.

**Call edges** carry the lockset syntactically held at the call site.
**Thread roots** are the functions handed to ``threading.Thread(target=…)``
/ ``mp.Process(target=…)`` factories or to ``pool.submit(fn, …)`` — the
places a second program counter enters the code.  Unresolvable targets
(e.g. ``self._httpd.serve_forever``, a stdlib method) are kept as named
pseudo-roots so the roots regression test still sees them appear.

**Entry locksets** are a must-hold fixpoint: the set of locks guaranteed
to be held on *every* resolved path into a function —
``entry(f) = ∩ over call sites (entry(caller) ∪ site locks)``, with
thread roots and externally-callable functions (no resolved callers)
pinned to ∅.  This is what lets THR210 accept a helper that mutates
shared state with the lock taken one call up, and what lets THR201
accept the same helper.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.checks.analysis.project import Project


@dataclass(frozen=True)
class CallEdge:
    caller: str                    #: fq name
    callee: str                    #: fq name
    line: int
    locks: tuple[str, ...] = ()


@dataclass
class ThreadRoot:
    """One discovered thread/process entry point."""

    kind: str                      #: ``thread`` | ``process`` | ``submit``
    target: str                    #: fq function name, or the raw expr
    resolved: bool
    spawned_at: str                #: ``path:line`` of the spawning call
    spawner: str                   #: fq name of the spawning function


@dataclass
class CallGraph:
    project: Project
    edges: list[CallEdge] = field(default_factory=list)
    #: fq name -> outgoing edges / incoming edges
    out_edges: dict[str, list[CallEdge]] = field(default_factory=dict)
    in_edges: dict[str, list[CallEdge]] = field(default_factory=dict)
    roots: list[ThreadRoot] = field(default_factory=list)
    #: fq function -> set of root target fq names it is reachable from
    reachable_from: dict[str, set[str]] = field(default_factory=dict)
    #: fq function -> must-hold entry lockset
    entry_locks: dict[str, frozenset[str]] = field(default_factory=dict)
    #: fq function -> locks acquired here or in (transitive) callees
    transitive_acquires: dict[str, set[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        graph = cls(project=project)
        graph._build_edges()
        graph._discover_roots()
        graph._compute_reachability()
        graph._compute_entry_locks()
        graph._compute_transitive_acquires()
        return graph

    # -- construction ------------------------------------------------------

    def _build_edges(self) -> None:
        for ref, fn in self.project.iter_functions():
            for site in fn.calls:
                callee = self.project.resolve_call(ref, site.callee)
                if callee is None:
                    continue
                edge = CallEdge(
                    caller=ref.fq, callee=callee.fq, line=site.line,
                    locks=tuple(site.locks),
                )
                self.edges.append(edge)
        for e in self.edges:
            self.out_edges.setdefault(e.caller, []).append(e)
            self.in_edges.setdefault(e.callee, []).append(e)

    def _discover_roots(self) -> None:
        seen: set[tuple[str, str]] = set()
        for ref, fn in self.project.iter_functions():
            path = self.project.path_of(ref.module)
            for site in fn.calls:
                terminal = site.callee.split(".")[-1]
                kind: str | None = None
                raw: str | None = None
                if terminal in ("Thread", "Process") and site.target is not None:
                    kind = "thread" if terminal == "Thread" else "process"
                    raw = site.target
                elif terminal in ("submit", "apply_async") and site.arg0 is not None:
                    kind = "submit"
                    raw = site.arg0
                if kind is None or raw is None:
                    continue
                resolved = self.project.resolve_target(ref, raw)
                if resolved is None and kind == "submit":
                    # ``.submit(x)`` is ambiguous: the project's own
                    # Batcher/ClusterPool work queues take *data* as the
                    # first argument.  Only a resolvable function
                    # reference counts as an executor-style thread root;
                    # Thread/Process ``target=`` is unambiguous, so those
                    # stay visible as pseudo-roots even when unresolved.
                    continue
                target = resolved.fq if resolved is not None else (
                    f"{ref.module}.{raw}"
                )
                key = (kind, target)
                if key in seen:
                    continue
                seen.add(key)
                self.roots.append(
                    ThreadRoot(
                        kind=kind, target=target,
                        resolved=resolved is not None,
                        spawned_at=f"{path}:{site.line}",
                        spawner=ref.fq,
                    )
                )
        self.roots.sort(key=lambda r: (r.kind, r.target))

    def _compute_reachability(self) -> None:
        reach: dict[str, set[str]] = defaultdict(set)
        for root in self.roots:
            if not root.resolved:
                continue
            stack = [root.target]
            visited: set[str] = set()
            while stack:
                fq = stack.pop()
                if fq in visited:
                    continue
                visited.add(fq)
                reach[fq].add(root.target)
                for e in self.out_edges.get(fq, ()):
                    stack.append(e.callee)
        self.reachable_from = dict(reach)

    def _compute_entry_locks(self) -> None:
        """Must-hold fixpoint over resolved call edges (see module doc)."""
        TOP = None  # lattice top: "not yet constrained"
        entry: dict[str, frozenset[str] | None] = {}
        all_fns = [ref.fq for ref, _ in self.project.iter_functions()]
        for fq in all_fns:
            entry[fq] = TOP
        root_targets = {r.target for r in self.roots if r.resolved}
        pinned: set[str] = set()
        for fq in all_fns:
            terminal = fq.rsplit(".", 1)[-1]
            public = not terminal.startswith("_") or terminal.startswith("__")
            # Roots, externally-callable functions (no resolved callers),
            # and public API (callable from anywhere with no lock held)
            # are pinned to the empty entry lockset.
            if fq in root_targets or fq not in self.in_edges or public:
                entry[fq] = frozenset()
                pinned.add(fq)
        changed = True
        iters = 0
        while changed and iters < 50:
            changed = False
            iters += 1
            for fq in all_fns:
                incoming = self.in_edges.get(fq)
                if not incoming or fq in pinned:
                    continue
                acc: frozenset[str] | None = TOP
                for e in incoming:
                    caller_entry = entry.get(e.caller)
                    if caller_entry is TOP:
                        continue  # unconstrained caller: no info yet
                    locks = frozenset(caller_entry or ()) | frozenset(e.locks)
                    acc = locks if acc is TOP else (acc & locks)
                if acc is not TOP and acc != entry[fq]:
                    entry[fq] = acc
                    changed = True
        self.entry_locks = {
            fq: (locks if locks is not TOP else frozenset())
            for fq, locks in entry.items()
        }

    def _compute_transitive_acquires(self) -> None:
        acq: dict[str, set[str]] = {}
        for ref, fn in self.project.iter_functions():
            acq[ref.fq] = set(fn.acquires)
        changed = True
        iters = 0
        while changed and iters < 50:
            changed = False
            iters += 1
            for fq, locks in acq.items():
                for e in self.out_edges.get(fq, ()):
                    callee_locks = acq.get(e.callee)
                    if callee_locks and not callee_locks <= locks:
                        locks.update(callee_locks)
                        changed = True
        self.transitive_acquires = acq

    # -- queries -----------------------------------------------------------

    def roots_reaching(self, fq: str) -> set[str]:
        return self.reachable_from.get(fq, set())

    def entry_lockset(self, fq: str) -> frozenset[str]:
        return self.entry_locks.get(fq, frozenset())


__all__ = ["CallGraph", "CallEdge", "ThreadRoot"]

"""Project model: module discovery, summaries, and symbol resolution.

A :class:`Project` is the whole-program view the analyses run over:
every scanned module's :class:`~repro.checks.analysis.summary.ModuleSummary`
plus the file contexts (suppression tables) and a resolver that turns the
dotted call expressions recorded in summaries into fully-qualified
function names (``repro.serve.worker.WorkerPool._run``).

Resolution is deliberately one-level and syntactic (this is still a
linter, not a type checker):

* ``name(...)``      -> same-module function, or an imported symbol;
* ``self.meth(...)`` -> method of the enclosing class or its resolvable
  bases;
* ``mod.func(...)``  -> function of an imported module;
* ``Class(...)``     -> ``Class.__init__``;
* ``self.attr.meth(...)`` / ``local.meth(...)`` -> method of the class
  recorded for the attribute/local (``self.attr = Class(...)``).

Anything else resolves to ``None`` and simply contributes no call edge —
the analyses stay conservative rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.checks.analysis.cache import SummaryCache
from repro.checks.analysis.summary import ModuleSummary, summarize
from repro.checks.engine import FileContext, discover, make_context


def module_name_for(path: str) -> str:
    """Dotted module name for a file path.

    ``src/repro/core/gemm.py`` -> ``repro.core.gemm``.  Falls back to the
    path relative to its first package-ish component; ``__init__.py``
    names the package itself.
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        # Strip leading absolute/relative noise; keep the last components
        # that look like an importable dotted path.
        parts = [p for p in parts if p not in ("/", ".", "..")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p) or "<module>"


@dataclass
class FunctionRef:
    """A fully-qualified function in the project."""

    module: str
    qualname: str          #: module-relative (``Class.meth`` or ``func``)

    @property
    def fq(self) -> str:
        return f"{self.module}.{self.qualname}"


@dataclass
class Project:
    """Summaries + contexts for one whole-program analysis run."""

    summaries: dict[str, ModuleSummary] = field(default_factory=dict)
    #: path -> parsed file (AST + suppression table)
    contexts: dict[str, FileContext] = field(default_factory=dict)
    #: files whose source failed to parse (path -> the error)
    parse_failures: dict[str, SyntaxError] = field(default_factory=dict)

    # -- construction ------------------------------------------------------

    @classmethod
    def load(
        cls,
        paths: Iterable[str],
        cache: SummaryCache | None = None,
    ) -> "Project":
        """Build a project from files/directories on disk."""
        project = cls()
        for file in discover(list(paths)):
            project._add(str(file), file.read_text(encoding="utf-8"), cache)
        return project

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "Project":
        """Build a project from in-memory ``{relpath: source}`` (tests)."""
        project = cls()
        for path, text in sources.items():
            project._add(path, text, None)
        return project

    def _add(self, path: str, text: str, cache: SummaryCache | None) -> None:
        module = module_name_for(path)
        try:
            ctx = make_context(text, path)
        except SyntaxError as exc:
            self.parse_failures[path] = exc
            return
        self.contexts[path] = ctx
        summary = cache.get(text) if cache is not None else None
        if summary is None or summary.module != module:
            summary = summarize(module, path, ctx.tree)
            if cache is not None:
                cache.put(text, summary)
        summary.path = path  # a cached summary keeps the path it was built from
        self.summaries[module] = summary

    # -- lookups -----------------------------------------------------------

    def function(self, ref: FunctionRef):
        mod = self.summaries.get(ref.module)
        if mod is None:
            return None
        return mod.functions.get(ref.qualname)

    def iter_functions(self) -> Iterable[tuple[FunctionRef, object]]:
        for module, summary in self.summaries.items():
            for qualname, fn in summary.functions.items():
                yield FunctionRef(module, qualname), fn

    def path_of(self, module: str) -> str:
        s = self.summaries.get(module)
        return s.path if s is not None else module

    def enclosing_function(self, path: str, line: int) -> FunctionRef | None:
        """The function whose body spans ``line`` in ``path``."""
        for module, summary in self.summaries.items():
            if summary.path != path:
                continue
            best: FunctionRef | None = None
            best_span = None
            for qualname, fn in summary.functions.items():
                if fn.line <= line <= fn.end_line:
                    span = fn.end_line - fn.line
                    if best_span is None or span < best_span:
                        best, best_span = FunctionRef(module, qualname), span
            return best
        return None

    # -- resolution --------------------------------------------------------

    def _symbol_in_module(self, module: str, name: str) -> FunctionRef | None:
        """``name`` as a function or class constructor in ``module``."""
        summary = self.summaries.get(module)
        if summary is None:
            return None
        if name in summary.functions:
            return FunctionRef(module, name)
        cls_info = summary.classes.get(name)
        if cls_info is not None:
            if "__init__" in cls_info.get("methods", ()):
                return FunctionRef(module, f"{name}.__init__")
            return FunctionRef(module, name)  # class without own __init__
        return None

    def _resolve_import(self, module: str, alias: str) -> str | None:
        summary = self.summaries.get(module)
        if summary is None:
            return None
        return summary.imports.get(alias)

    def _method_on_class(
        self, module: str, class_name: str, meth: str, _depth: int = 0
    ) -> FunctionRef | None:
        summary = self.summaries.get(module)
        if summary is None or _depth > 4:
            return None
        info = summary.classes.get(class_name)
        if info is None:
            return None
        if meth in info.get("methods", ()):
            return FunctionRef(module, f"{class_name}.{meth}")
        for base in info.get("bases", ()):
            ref = self._resolve_class(module, base)
            if ref is not None:
                found = self._method_on_class(
                    ref[0], ref[1], meth, _depth + 1
                )
                if found is not None:
                    return found
        return None

    def _resolve_class(
        self, module: str, dotted: str
    ) -> tuple[str, str] | None:
        """Resolve a class expression to ``(module, class_name)``."""
        parts = dotted.split(".")
        summary = self.summaries.get(module)
        if summary is None:
            return None
        if len(parts) == 1:
            if parts[0] in summary.classes:
                return (module, parts[0])
            target = summary.imports.get(parts[0])
            if target is not None:
                tmod, _, tname = target.rpartition(".")
                if tmod in self.summaries and tname in self.summaries[tmod].classes:
                    return (tmod, tname)
            return None
        head, rest = parts[0], parts[1:]
        target = summary.imports.get(head)
        if target is not None and target in self.summaries and len(rest) == 1:
            if rest[0] in self.summaries[target].classes:
                return (target, rest[0])
        return None

    def resolve_call(
        self, caller: FunctionRef, dotted: str
    ) -> FunctionRef | None:
        """Resolve a recorded call expression to a project function."""
        if not dotted:
            return None
        parts = dotted.split(".")
        module = caller.module
        summary = self.summaries.get(module)
        caller_fn = self.function(caller)
        class_name = getattr(caller_fn, "class_name", None)

        # self.meth(...) / cls.meth(...)
        if parts[0] in ("self", "cls") and class_name is not None:
            if len(parts) == 2:
                return self._method_on_class(module, class_name, parts[1])
            if len(parts) == 3 and summary is not None:
                # self.attr.meth(...): use the recorded attribute type.
                info = summary.classes.get(class_name, {})
                attr_cls = info.get("attr_types", {}).get(parts[1])
                if attr_cls is not None:
                    ref = self._resolve_class(module, attr_cls)
                    if ref is not None:
                        return self._method_on_class(ref[0], ref[1], parts[2])
            return None

        # bare name: local function/class, else imported symbol
        if len(parts) == 1:
            local = self._symbol_in_module(module, parts[0])
            if local is not None:
                return local
            target = self._resolve_import(module, parts[0])
            if target is not None:
                tmod, _, tname = target.rpartition(".")
                if target in self.summaries:
                    return None  # a module used bare — not callable
                if tmod in self.summaries:
                    return self._symbol_in_module(tmod, tname)
            return None

        # dotted: alias.attr[.attr2]
        target = self._resolve_import(module, parts[0])
        if target is not None:
            if target in self.summaries:
                tmod = target
                if len(parts) == 2:
                    return self._symbol_in_module(tmod, parts[1])
                if len(parts) == 3:
                    return self._method_on_class(tmod, parts[1], parts[2])
                return None
            # ``from x import Class`` then ``Class.method`` / ``Class()``
            tmod, _, tname = target.rpartition(".")
            if tmod in self.summaries:
                if len(parts) == 2:
                    return self._method_on_class(tmod, tname, parts[1])
            return None

        # ClassName.meth within the same module
        if len(parts) == 2 and summary is not None and parts[0] in summary.classes:
            return self._method_on_class(module, parts[0], parts[1])
        return None

    def resolve_target(
        self, caller: FunctionRef, dotted: str | None
    ) -> FunctionRef | None:
        """Resolve a thread/process target or submit arg to a function."""
        if dotted is None:
            return None
        return self.resolve_call(caller, dotted)


__all__ = ["Project", "FunctionRef", "module_name_for"]

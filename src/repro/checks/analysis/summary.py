"""Per-module summaries for the whole-program analyses.

One AST pass per module distills everything the interprocedural phases
need into a :class:`ModuleSummary` — a plain JSON-serializable record:

* **symbols** — module-level functions, classes (bases, methods, and the
  ``self.<attr> = ClassName(...)`` attribute types used for one-level
  method resolution), import aliases, module-level mutable state and
  lock definitions;
* **per-function facts** — resolved-enough call sites with the lockset
  held at each, module-state writes with their locksets, direct lock
  acquisitions and nested (outer, inner) acquisition pairs, thread /
  process / pool-submit spawn sites, and the dtype-exactness events the
  :mod:`repro.checks.analysis.dtypeflow` lattice consumes.

Summaries deliberately contain **no AST nodes** so they can round-trip
through the content-addressed cache (:mod:`repro.checks.analysis.cache`)
— the whole-program phase runs entirely from summaries, which is what
keeps warm incremental ``--deep`` runs fast.

Lock canonicalization
---------------------
Locks are named so the same object gets the same token everywhere:

* module-level lock -> ``<module>.<name>`` (``repro.core.gemm._stats_lock``)
* ``self._lock`` in class C -> ``<module>.<C>._lock`` (all instances of a
  class share a token — exact for the process-wide singletons the THR
  rules guard, an over-approximation for multi-instance classes)
* ``<global>.lock`` -> ``<module>.<global>.lock``
* anything else (a local's attribute) -> ``<module>.<function>.<expr>``,
  a function-scoped token.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator

from repro.checks import astutil

#: Bump to invalidate every cached summary when the extraction changes.
SUMMARY_VERSION = 3

#: Callee terminal names that spawn a thread/process with ``target=``.
_SPAWN_FACTORIES = frozenset({"Thread", "Process"})

#: Callee terminal names whose first positional argument runs on a
#: worker thread (``pool.submit(fn, ...)``).
_SUBMIT_METHODS = frozenset({"submit", "apply_async"})

#: dtype spellings narrower than the float64/int64 exactness contract.
NARROW_DTYPES = frozenset({
    "float32", "float16", "int32", "int16", "int8",
    "uint8", "uint16", "uint32",
})

#: dtype spellings that keep (or establish) the exact-integer contract.
_WIDE_INT_DTYPES = frozenset({"int64", "uint64", "intp"})
_WIDE_FLOAT_DTYPES = frozenset({"float64", "double"})

#: Array-returning methods that preserve the element values exactly.
_VALUE_PRESERVING_METHODS = frozenset({
    "reshape", "transpose", "copy", "ravel", "flatten", "squeeze",
    "swapaxes", "view", "take",
})

#: np.* functions that preserve element values exactly.
_VALUE_PRESERVING_FUNCS = frozenset({
    "ascontiguousarray", "asarray", "array", "concatenate", "stack",
    "vstack", "hstack", "pad", "where", "take", "take_along_axis",
    "zeros_like", "empty_like",
})

#: Attribute reads that are bit-plane / packed-operand sources — the
#: ColumnCache / PackedConvWeights API (exact integers in float64).
_SOURCE_ATTRS = frozenset({
    "cols_high", "cols_low", "cols_full",
    "wmat_full", "wmat_high", "wmat_rest",
})

#: Resolved-callee terminal names that mint exact values.
_SOURCE_CALL_TERMINALS = frozenset({"bit_split", "rint"})
_SOURCE_CALL_PREFIXES = ("quantize",)

#: Terminal callee names that are GEMM sinks (resolution happens later;
#: the terminal match keeps fixtures independent of the repro tree).
GEMM_SINK_TERMINALS = frozenset({"pgemm", "plan_gemm"})


# --------------------------------------------------------------------------
# dtype-basis descriptors (the serializable mini-IR the flow phase reads)
# --------------------------------------------------------------------------

def lat(value: str) -> dict[str, Any]:
    """A lattice constant basis: exact-int | exact-float | unknown."""
    return {"k": "lat", "v": value}


UNKNOWN = lat("unknown")
EXACT_INT = lat("exact-int")
EXACT_FLOAT = lat("exact-float")


def taint_basis(line: int, reason: str, base: dict[str, Any]) -> dict[str, Any]:
    """A conditionally-tainted basis: tainted iff ``base`` is exact."""
    return {"k": "taint", "line": line, "reason": reason, "base": base}


def param_basis(index: int) -> dict[str, Any]:
    return {"k": "param", "i": index}


def call_basis(callee: str, line: int, args: list[dict[str, Any]]) -> dict[str, Any]:
    return {"k": "call", "callee": callee, "line": line, "args": args}


# --------------------------------------------------------------------------
# summary records
# --------------------------------------------------------------------------

@dataclass
class CallSite:
    """One resolvable call expression inside a function."""

    callee: str                    #: dotted expr as written (``self._run``)
    line: int
    locks: list[str] = field(default_factory=list)
    #: dotted expr of ``target=`` kwarg for Thread/Process factories
    target: str | None = None
    #: dotted expr of the first positional arg for ``submit``-style calls
    arg0: str | None = None
    #: dtype bases of positional args (for interprocedural taint flow)
    args: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class StateWrite:
    """A write to module-level mutable state."""

    name: str                      #: the module-level variable name
    line: int
    locks: list[str] = field(default_factory=list)


@dataclass
class GemmCall:
    """A call into a GEMM sink (``pgemm`` / ``plan_gemm``)."""

    callee: str
    line: int
    args: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class FunctionSummary:
    name: str                      #: module-relative qualname (``C.meth``)
    line: int
    end_line: int
    params: list[str] = field(default_factory=list)
    class_name: str | None = None
    calls: list[CallSite] = field(default_factory=list)
    writes: list[StateWrite] = field(default_factory=list)
    acquires: list[str] = field(default_factory=list)
    #: nested lock acquisitions: [outer, inner, line]
    acq_pairs: list[list[Any]] = field(default_factory=list)
    gemm_calls: list[GemmCall] = field(default_factory=list)
    #: dtype basis of the function's return value
    returns: dict[str, Any] = field(default_factory=lambda: dict(UNKNOWN))
    #: function contains an os.getpid() fork-guard probe
    has_getpid: bool = False


@dataclass
class ModuleSummary:
    module: str                    #: dotted module name
    path: str                      #: path as given to the engine
    version: int = SUMMARY_VERSION
    #: local alias -> qualified target (module or module.symbol)
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    #: class -> {"bases": [...], "methods": [...], "attr_types": {attr: cls}}
    classes: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: module-level mutable names -> definition line
    state: dict[str, int] = field(default_factory=dict)
    #: module-level lock names
    locks: list[str] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "ModuleSummary":
        out = cls(module=doc["module"], path=doc["path"],
                  version=doc.get("version", 0))
        out.imports = dict(doc.get("imports", {}))
        out.classes = {k: dict(v) for k, v in doc.get("classes", {}).items()}
        out.state = {k: int(v) for k, v in doc.get("state", {}).items()}
        out.locks = list(doc.get("locks", []))
        for name, f in doc.get("functions", {}).items():
            fs = FunctionSummary(
                name=f["name"], line=f["line"], end_line=f["end_line"],
                params=list(f.get("params", [])),
                class_name=f.get("class_name"),
                acquires=list(f.get("acquires", [])),
                acq_pairs=[list(p) for p in f.get("acq_pairs", [])],
                returns=dict(f.get("returns", UNKNOWN)),
                has_getpid=bool(f.get("has_getpid", False)),
            )
            fs.calls = [CallSite(**c) for c in f.get("calls", [])]
            fs.writes = [StateWrite(**w) for w in f.get("writes", [])]
            fs.gemm_calls = [GemmCall(**g) for g in f.get("gemm_calls", [])]
            out.functions[name] = fs
        return out


# --------------------------------------------------------------------------
# extraction
# --------------------------------------------------------------------------

def _module_mutable_state(tree: ast.Module) -> tuple[dict[str, int], list[str]]:
    """(mutable module-state names -> line, module-level lock names)."""
    state: dict[str, int] = {}
    locks: list[str] = []
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        for t in targets:
            if not isinstance(t, ast.Name):
                continue
            is_lock = "lock" in t.id.lower()
            if not is_lock and isinstance(value, ast.Call):
                ctor = astutil.terminal_name(value.func)
                is_lock = ctor in (
                    "Lock", "RLock", "Condition", "Semaphore",
                    "BoundedSemaphore",
                )
            if is_lock:
                locks.append(t.id)
                continue
            if t.id.startswith("__"):
                continue
            mutable = False
            if isinstance(value, (ast.Dict, ast.List, ast.Set,
                                  ast.ListComp, ast.DictComp, ast.SetComp)):
                mutable = True
            elif isinstance(value, ast.Call):
                callee = astutil.terminal_name(value.func)
                mutable = callee is not None and callee not in (
                    "frozenset", "tuple", "int", "float", "str", "bool",
                    "bytes", "compile", "Lock", "RLock", "Condition",
                    "Semaphore", "BoundedSemaphore", "Event", "local",
                    "get_logger", "namedtuple", "TypeVar", "getenv", "get",
                    "Path", "getLogger",
                )
            elif isinstance(value, ast.Constant):
                # Scalars (``_counter = 0``, ``_pool = None``) are shared
                # state too when a function rebinds them via ``global`` —
                # write recording still requires that declaration, so
                # never-rebound constants cost nothing.
                mutable = True
            if mutable:
                state[t.id] = stmt.lineno
    return state, locks


def _imports(tree: ast.Module, module: str) -> dict[str, str]:
    """Local alias -> absolute dotted target for top-level imports."""
    package = module.rsplit(".", 1)[0] if "." in module else ""
    aliases: dict[str, str] = {}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for a in stmt.names:
                local = a.asname or a.name.split(".")[0]
                target = a.name if a.asname else a.name.split(".")[0]
                aliases[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                # Relative import: resolve against the enclosing package.
                parts = module.split(".")
                # level 1 = current package (for a module, its parent).
                anchor = parts[: len(parts) - stmt.level]
                base = ".".join(anchor + ([stmt.module] if stmt.module else []))
            for a in stmt.names:
                if a.name == "*":
                    continue
                local = a.asname or a.name
                aliases[local] = f"{base}.{a.name}" if base else a.name
    _ = package
    return aliases


def _lock_token(
    expr: ast.expr,
    module: str,
    class_name: str | None,
    func_qualname: str,
    module_locks: set[str],
) -> str:
    """Canonical token for a lock expression (see module docstring)."""
    dotted = astutil.dotted_name(expr)
    if dotted is None:
        return f"{module}.{func_qualname}.<expr@{getattr(expr, 'lineno', 0)}>"
    parts = dotted.split(".")
    if parts[0] == "self" and class_name is not None:
        return f"{module}.{class_name}." + ".".join(parts[1:])
    if parts[0] == "cls" and class_name is not None:
        return f"{module}.{class_name}." + ".".join(parts[1:])
    if parts[0] in module_locks or (len(parts) > 1 and parts[0].startswith("_")):
        # module-level lock, or ``<module-global>.lock``
        return f"{module}.{dotted}"
    if len(parts) == 1:
        # A bare name: module lock if defined there, else function-local.
        return f"{module}.{func_qualname}.{dotted}"
    return f"{module}.{func_qualname}.{dotted}"


def _is_lock_expr(expr: ast.expr, module_locks: set[str]) -> bool:
    """Lock heuristic plus the module's *declared* lock names, so
    ``with _a:`` counts when ``_a = threading.Lock()`` at module level
    even though the name itself does not contain ``lock``."""
    if astutil.is_lockish(expr):
        return True
    dotted = astutil.dotted_name(expr)
    return dotted is not None and dotted.split(".")[0] in module_locks


def _held_locks(
    node: ast.AST,
    parents: dict[ast.AST, ast.AST],
    func: ast.AST,
    module: str,
    class_name: str | None,
    func_qualname: str,
    module_locks: set[str],
) -> list[str]:
    """Canonical lockset held at ``node`` (enclosing ``with <lock>:``)."""
    held: list[str] = []
    for anc in astutil.ancestors(node, parents):
        if anc is func:
            break
        if isinstance(anc, ast.With):
            for item in anc.items:
                if _is_lock_expr(item.context_expr, module_locks):
                    tok = _lock_token(item.context_expr, module, class_name,
                                      func_qualname, module_locks)
                    if tok not in held:
                        held.append(tok)
    return held


def _iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str | None, str]]:
    """(function node, enclosing class name, module-relative qualname)."""
    for node in tree.body:
        if isinstance(node, astutil.FunctionNode):
            yield node, None, node.name
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, astutil.FunctionNode):
                    yield sub, node.name, f"{node.name}.{sub.name}"


def _class_info(tree: ast.Module) -> dict[str, dict[str, Any]]:
    classes: dict[str, dict[str, Any]] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = [b for b in (astutil.dotted_name(x) for x in node.bases) if b]
        methods = [s.name for s in node.body if isinstance(s, astutil.FunctionNode)]
        attr_types: dict[str, str] = {}
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign):
                continue
            if not isinstance(sub.value, ast.Call):
                continue
            ctor = astutil.dotted_name(sub.value.func)
            if ctor is None:
                continue
            term = ctor.split(".")[-1]
            if not (term[:1].isupper()):
                continue
            for t in sub.targets:
                if (
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ):
                    attr_types[t.attr] = ctor
        classes[node.name] = {
            "bases": bases, "methods": methods, "attr_types": attr_types,
        }
    return classes


class _DtypeEnv:
    """Flat per-function dtype environment (var name -> basis)."""

    def __init__(self, params: list[str]):
        self.vars: dict[str, dict[str, Any]] = {
            p: param_basis(i) for i, p in enumerate(params)
        }

    def get(self, name: str) -> dict[str, Any]:
        return self.vars.get(name, UNKNOWN)

    def set(self, name: str, basis: dict[str, Any]) -> None:
        self.vars[name] = basis


def _dtype_of_astype_arg(arg: ast.expr) -> str | None:
    """The dtype name an ``astype`` argument spells, if recognizable."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    name = astutil.terminal_name(arg)
    return name


def _is_integral_const(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        v = node.value
        if isinstance(v, bool):
            return True
        if isinstance(v, int):
            return True
        if isinstance(v, float):
            return float(v).is_integer()
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_integral_const(node.operand)
    return False


def _is_nonintegral_float_const(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return not float(node.value).is_integer()
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_nonintegral_float_const(node.operand)
    return False


def _basis_maybe_exact(basis: dict[str, Any]) -> bool:
    """Could this basis resolve to an exact value interprocedurally?"""
    k = basis.get("k")
    if k == "lat":
        return basis.get("v") in ("exact-int", "exact-float")
    return k in ("param", "call", "taint")


class _FunctionExtractor:
    """Single-function fact extraction (locks, calls, writes, dtype)."""

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
        qualname: str,
        module: str,
        module_state: dict[str, int],
        module_locks: set[str],
        parents: dict[ast.AST, ast.AST],
    ):
        self.func = func
        self.class_name = class_name
        self.qualname = qualname
        self.module = module
        self.module_state = module_state
        self.module_locks = module_locks
        self.parents = parents
        params = [a.arg for a in func.args.args]
        if params and params[0] in ("self", "cls") and class_name is not None:
            pass  # keep self as param 0 so indices line up with call args
        self.env = _DtypeEnv(params)
        self.out = FunctionSummary(
            name=qualname,
            line=func.lineno,
            end_line=getattr(func, "end_lineno", func.lineno) or func.lineno,
            params=params,
            class_name=class_name,
        )
        #: local var -> class name (``x = ClassName(...)``)
        self.local_types: dict[str, str] = {}

    # -- dtype basis evaluation -------------------------------------------

    def eval_expr(self, node: ast.expr) -> dict[str, Any]:
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr in _SOURCE_ATTRS:
                return EXACT_FLOAT
            return UNKNOWN
        if isinstance(node, ast.Subscript):
            return self.eval_expr(node.value)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return self.eval_expr(node.operand)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or isinstance(node.value, int):
                return EXACT_INT
            if isinstance(node.value, float) and node.value.is_integer():
                return EXACT_FLOAT
            return UNKNOWN
        return UNKNOWN

    def _eval_binop(self, node: ast.BinOp) -> dict[str, Any]:
        left = self.eval_expr(node.left)
        right = self.eval_expr(node.right)
        if isinstance(node.op, ast.Div):
            for side in (left, right):
                if _basis_maybe_exact(side):
                    return taint_basis(
                        node.lineno, "division leaves the exact-integer domain",
                        side,
                    )
            return UNKNOWN
        if isinstance(node.op, (ast.Mult, ast.Add, ast.Sub)):
            for basis, other_node in ((left, node.right), (right, node.left)):
                if _basis_maybe_exact(basis) and _is_nonintegral_float_const(other_node):
                    return taint_basis(
                        node.lineno,
                        "non-integral float constant breaks exactness",
                        basis,
                    )
            if _basis_maybe_exact(left) and _is_integral_const(node.right):
                return left
            if _basis_maybe_exact(right) and _is_integral_const(node.left):
                return right
            if _basis_maybe_exact(left) and _basis_maybe_exact(right):
                # exact op exact stays exact (integer algebra)
                return left
            return UNKNOWN
        if isinstance(node.op, (ast.LShift, ast.RShift, ast.Mod, ast.FloorDiv)):
            if _basis_maybe_exact(left):
                return left
            return UNKNOWN
        return UNKNOWN

    def _eval_call(self, node: ast.Call) -> dict[str, Any]:
        dotted = astutil.dotted_name(node.func) or ""
        terminal = astutil.terminal_name(node.func) or ""
        # astype: narrowing taints an exact value; widening to int64
        # establishes / keeps exactness; float64 keeps it.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
        ):
            base = self.eval_expr(node.func.value)
            dt = _dtype_of_astype_arg(node.args[0])
            if dt in NARROW_DTYPES:
                if _basis_maybe_exact(base):
                    return taint_basis(
                        node.lineno, f"astype({dt}) narrows below the "
                        "float64/int64 exactness contract", base,
                    )
                return UNKNOWN
            if dt in _WIDE_INT_DTYPES:
                if base.get("k") == "taint":
                    return base
                return EXACT_INT
            if dt in _WIDE_FLOAT_DTYPES:
                return base if _basis_maybe_exact(base) else UNKNOWN
            return UNKNOWN
        if terminal in _SOURCE_CALL_TERMINALS:
            return EXACT_FLOAT if terminal == "rint" else EXACT_INT
        if any(terminal.startswith(p) for p in _SOURCE_CALL_PREFIXES):
            return EXACT_INT
        if terminal in _VALUE_PRESERVING_METHODS and isinstance(
            node.func, ast.Attribute
        ):
            return self.eval_expr(node.func.value)
        if terminal in _VALUE_PRESERVING_FUNCS and node.args:
            return self.eval_expr(node.args[-1 if terminal == "where" else 0])
        if terminal in ("float32", "float16", "single", "half"):
            if node.args:
                base = self.eval_expr(node.args[0])
                if _basis_maybe_exact(base):
                    return taint_basis(
                        node.lineno, f"np.{terminal}() narrows below the "
                        "exactness contract", base,
                    )
            return UNKNOWN
        # A generic call: symbolic, resolved at the whole-program phase.
        args = [self.eval_expr(a) for a in node.args]
        return call_basis(dotted or terminal or "<call>", node.lineno, args)

    # -- statement walk ----------------------------------------------------

    def run(self) -> FunctionSummary:
        for sub in ast.walk(self.func):
            if (
                (isinstance(sub, ast.Attribute) and sub.attr == "getpid")
                or (isinstance(sub, ast.Name) and sub.id == "getpid")
            ):
                self.out.has_getpid = True
                break
        self._walk_body(self.func.body)
        return self.out

    def _walk_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, astutil.FunctionNode) or isinstance(stmt, ast.ClassDef):
            return  # nested defs are their own scope; skip conservatively
        if isinstance(stmt, ast.Assign):
            basis = self.eval_expr(stmt.value)
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    self.env.set(t.id, basis)
                    if isinstance(stmt.value, ast.Call):
                        ctor = astutil.dotted_name(stmt.value.func)
                        if ctor and ctor.split(".")[-1][:1].isupper():
                            self.local_types[t.id] = ctor
            self._record_write(stmt)
            self._scan_calls(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._record_write(stmt)
            self._scan_calls(stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and isinstance(stmt.target, ast.Name):
                self.env.set(stmt.target.id, self.eval_expr(stmt.value))
            self._scan_calls(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.out.returns = self.eval_expr(stmt.value)
            self._scan_calls(stmt)
        elif isinstance(stmt, ast.With):
            self._record_with(stmt)
            self._scan_calls_exprs([i.context_expr for i in stmt.items])
            self._walk_body(stmt.body)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._scan_calls_exprs([stmt.test])
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self._scan_calls_exprs([stmt.iter])
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body)
            for h in stmt.handlers:
                self._walk_body(h.body)
            self._walk_body(stmt.orelse)
            self._walk_body(stmt.finalbody)
        else:
            self._record_write(stmt)
            self._scan_calls(stmt)

    def _locks_at(self, node: ast.AST) -> list[str]:
        return _held_locks(node, self.parents, self.func, self.module,
                           self.class_name, self.qualname, self.module_locks)

    def _record_with(self, stmt: ast.With) -> None:
        inner: list[str] = []
        for item in stmt.items:
            if _is_lock_expr(item.context_expr, self.module_locks):
                tok = _lock_token(item.context_expr, self.module,
                                  self.class_name, self.qualname,
                                  self.module_locks)
                inner.append(tok)
                if tok not in self.out.acquires:
                    self.out.acquires.append(tok)
        if inner:
            outer = self._locks_at(stmt)
            for o in outer:
                for i in inner:
                    if o != i:
                        self.out.acq_pairs.append([o, i, stmt.lineno])

    def _record_write(self, stmt: ast.stmt) -> None:
        names: list[str] = []
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            declared = self._global_names()
            for t in targets:
                if isinstance(t, (ast.Attribute, ast.Subscript)):
                    base = t.value
                    if isinstance(base, ast.Name) and base.id in self.module_state:
                        names.append(base.id)
                elif isinstance(t, ast.Name) and t.id in self.module_state:
                    if t.id in declared:
                        names.append(t.id)
                elif isinstance(t, ast.Tuple):
                    for el in t.elts:
                        if (
                            isinstance(el, ast.Name)
                            and el.id in self.module_state
                            and el.id in declared
                        ):
                            names.append(el.id)
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            f = call.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr in ("append", "extend", "add", "update", "clear",
                               "pop", "popitem", "remove", "discard",
                               "insert", "setdefault", "move_to_end")
                and isinstance(f.value, ast.Name)
                and f.value.id in self.module_state
            ):
                names.append(f.value.id)
        elif isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                if isinstance(t, (ast.Attribute, ast.Subscript)):
                    base = t.value
                    if isinstance(base, ast.Name) and base.id in self.module_state:
                        names.append(base.id)
        if not names:
            return
        locks = self._locks_at(stmt)
        for name in names:
            self.out.writes.append(
                StateWrite(name=name, line=stmt.lineno, locks=locks)
            )

    def _global_names(self) -> set[str]:
        declared: set[str] = set()
        for sub in ast.walk(self.func):
            if isinstance(sub, ast.Global):
                declared.update(sub.names)
        return declared

    def _scan_calls(self, stmt: ast.stmt) -> None:
        self._scan_calls_exprs([stmt])

    def _scan_calls_exprs(self, nodes: list[ast.AST]) -> None:
        for root in nodes:
            if root is None:
                continue
            for node in ast.walk(root):
                if isinstance(node, ast.Call):
                    self._record_call(node)

    def _record_call(self, node: ast.Call) -> None:
        dotted = astutil.dotted_name(node.func)
        if dotted is None:
            return
        terminal = dotted.split(".")[-1]
        locks = self._locks_at(node)
        site = CallSite(callee=dotted, line=node.lineno, locks=locks)
        if terminal in _SPAWN_FACTORIES:
            for kw in node.keywords:
                if kw.arg == "target":
                    site.target = astutil.dotted_name(kw.value)
        if terminal in _SUBMIT_METHODS and node.args:
            site.arg0 = astutil.dotted_name(node.args[0])
        if terminal in GEMM_SINK_TERMINALS:
            gargs = [self.eval_expr(a) for a in node.args[:2]]
            self.out.gemm_calls.append(
                GemmCall(callee=dotted, line=node.lineno, args=gargs)
            )
        else:
            site.args = [self.eval_expr(a) for a in node.args[:6]]
        self.out.calls.append(site)


def summarize(module: str, path: str, tree: ast.Module) -> ModuleSummary:
    """Extract the whole-program facts for one parsed module."""
    state, lock_names = _module_mutable_state(tree)
    parents = astutil.parent_map(tree)
    out = ModuleSummary(module=module, path=path)
    out.imports = _imports(tree, module)
    out.state = state
    out.locks = [f"{module}.{name}" for name in lock_names]
    out.classes = _class_info(tree)
    module_locks = set(lock_names)
    for func, class_name, qualname in _iter_functions(tree):
        fx = _FunctionExtractor(
            func, class_name, qualname, module, state, module_locks, parents
        )
        out.functions[qualname] = fx.run()
    return out


__all__ = [
    "SUMMARY_VERSION",
    "NARROW_DTYPES",
    "GEMM_SINK_TERMINALS",
    "CallSite",
    "StateWrite",
    "GemmCall",
    "FunctionSummary",
    "ModuleSummary",
    "summarize",
    "lat",
    "taint_basis",
    "param_basis",
    "call_basis",
    "UNKNOWN",
    "EXACT_INT",
    "EXACT_FLOAT",
]

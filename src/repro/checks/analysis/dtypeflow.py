"""Interprocedural dtype-exactness flow (DTY110).

The lattice mirrors the paper's exactness contract:

* ``exact-int`` — exact integers in an int64-class container (quantize
  outputs, ``astype(int64)`` of a value that never lost exactness);
* ``exact-float`` — exact integers carried in a float (bit planes,
  im2col columns, ``np.rint`` output) — the GEMM-operand domain, whose
  dtype only :func:`repro.core.colcache.exact_gemm_dtype` may narrow;
* ``tainted`` — a value that *was* exact and then lost it: narrowed
  below float64/int64, divided, or combined with a non-integral float;
* ``unknown`` — everything else (ordinary float math is fine: ``pgemm``
  also serves the non-quantized conv path).

Per-function facts are symbolic bases recorded by the summarizer
(:mod:`repro.checks.analysis.summary`): a GEMM argument may be a lattice
constant, ``param i``, a conditional taint over another basis, or a
one-level ``call`` result.  This pass resolves those bases over the call
graph — callee returns, params bound to caller arguments — and reports
DTY110 wherever a resolved-**tainted** value reaches a ``pgemm`` /
``plan_gemm`` argument, anchored at the *tainting operation* with the
sink named in the message: no identifier conventions, only provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.checks.analysis.callgraph import CallGraph
from repro.checks.analysis.project import FunctionRef, Project
from repro.checks.findings import Finding, Severity

_MAX_DEPTH = 6


@dataclass(frozen=True)
class Resolved:
    """A fully-resolved lattice value with taint provenance."""

    value: str                     #: exact-int | exact-float | unknown | tainted
    taint_line: int = 0
    taint_reason: str = ""
    taint_module: str = ""


_UNKNOWN = Resolved("unknown")


class DtypeFlow:
    """Whole-program basis resolver."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self.project: Project = graph.project
        self._returns_cache: dict[str, Resolved] = {}

    # -- basis resolution --------------------------------------------------

    def resolve(
        self,
        basis: dict[str, Any],
        ref: FunctionRef,
        bindings: list[Resolved] | None = None,
        depth: int = 0,
    ) -> Resolved:
        """Resolve a symbolic basis in the context of function ``ref``.

        ``bindings`` maps the function's parameters to resolved caller
        arguments when following a call edge; without bindings a
        ``param`` basis stays unknown (the function is analyzed as
        externally callable).
        """
        if depth > _MAX_DEPTH or not isinstance(basis, dict):
            return _UNKNOWN
        k = basis.get("k")
        if k == "lat":
            v = basis.get("v", "unknown")
            return Resolved(v) if v in ("exact-int", "exact-float") else _UNKNOWN
        if k == "param":
            i = basis.get("i", -1)
            if bindings is not None and 0 <= i < len(bindings):
                return bindings[i]
            return _UNKNOWN
        if k == "taint":
            inner = self.resolve(basis.get("base", {}), ref, bindings, depth + 1)
            if inner.value == "tainted":
                return inner
            if inner.value in ("exact-int", "exact-float"):
                return Resolved(
                    "tainted",
                    taint_line=int(basis.get("line", 0)),
                    taint_reason=str(basis.get("reason", "exactness lost")),
                    taint_module=ref.module,
                )
            return _UNKNOWN
        if k == "call":
            callee = self.project.resolve_call(ref, str(basis.get("callee", "")))
            args = [
                self.resolve(a, ref, bindings, depth + 1)
                for a in basis.get("args", ())
            ]
            # A tainted argument flowing into *any* call keeps its taint
            # only if the callee passes it through to its return — which
            # requires resolving the callee; unresolvable callees launder
            # conservatively to unknown.
            if callee is None:
                return _UNKNOWN
            return self._returns_of(callee, args, depth + 1)
        return _UNKNOWN

    def _returns_of(
        self, ref: FunctionRef, args: list[Resolved], depth: int
    ) -> Resolved:
        fn = self.project.function(ref)
        if fn is None or depth > _MAX_DEPTH:
            return _UNKNOWN
        return self.resolve(fn.returns, ref, bindings=args, depth=depth)

    # -- sink collection ---------------------------------------------------

    def _gemm_sinks(self) -> Iterator[tuple[FunctionRef, Any]]:
        for ref, fn in self.project.iter_functions():
            for g in fn.gemm_calls:
                yield ref, g

    def findings(self) -> Iterator[Finding]:
        """DTY110: resolved-tainted values reaching GEMM arguments."""
        seen: set[tuple[str, int, str]] = set()
        # Pass 1: sinks whose argument bases resolve without bindings
        # (taint originated inside the sink's own function or via calls).
        for ref, gemm in self._gemm_sinks():
            for idx, basis in enumerate(gemm.args):
                res = self.resolve(basis, ref)
                if res.value == "tainted":
                    f = self._make_finding(ref, gemm, idx, res, seen)
                    if f is not None:
                        yield f
        # Pass 2: taint crossing a call edge into a function whose param
        # reaches a GEMM — walk call sites with resolvable tainted args.
        param_sinks = self._params_reaching_gemm()
        for ref, fn in self.project.iter_functions():
            for site in fn.calls:
                if not site.args:
                    continue
                callee = self.project.resolve_call(ref, site.callee)
                if callee is None:
                    continue
                sink_params = param_sinks.get(callee.fq)
                if not sink_params:
                    continue
                for i, basis in enumerate(site.args):
                    if i not in sink_params:
                        continue
                    res = self.resolve(basis, ref)
                    if res.value != "tainted":
                        continue
                    gemm_line, gemm_path = sink_params[i]
                    f = self._taint_finding(
                        res,
                        sink_desc=(
                            f"reaches a GEMM operand in {callee.fq} "
                            f"({gemm_path}:{gemm_line}) via the call at "
                            f"{self.project.path_of(ref.module)}:{site.line}"
                        ),
                        seen=seen,
                    )
                    if f is not None:
                        yield f

    def _params_reaching_gemm(self) -> dict[str, dict[int, tuple[int, str]]]:
        """fq -> {param index -> (gemm line, path)} incl. one-level
        forwarding through calls to other param-sink functions."""
        direct: dict[str, dict[int, tuple[int, str]]] = {}
        for ref, fn in self.project.iter_functions():
            path = self.project.path_of(ref.module)
            for g in fn.gemm_calls:
                for basis in g.args:
                    if isinstance(basis, dict) and basis.get("k") == "param":
                        direct.setdefault(ref.fq, {})[int(basis["i"])] = (
                            g.line, path,
                        )
        # Forwarding: f passes its param j as arg i of g where g's param
        # i reaches a GEMM -> f's param j reaches that GEMM too.
        for _ in range(_MAX_DEPTH):
            changed = False
            for ref, fn in self.project.iter_functions():
                for site in fn.calls:
                    callee = self.project.resolve_call(ref, site.callee)
                    if callee is None:
                        continue
                    sink_params = direct.get(callee.fq)
                    if not sink_params:
                        continue
                    for i, basis in enumerate(site.args):
                        if (
                            isinstance(basis, dict)
                            and basis.get("k") == "param"
                            and i in sink_params
                        ):
                            j = int(basis["i"])
                            slot = direct.setdefault(ref.fq, {})
                            if j not in slot:
                                slot[j] = sink_params[i]
                                changed = True
            if not changed:
                break
        return direct

    # -- finding construction ---------------------------------------------

    def _make_finding(
        self,
        ref: FunctionRef,
        gemm: Any,
        arg_index: int,
        res: Resolved,
        seen: set[tuple[str, int, str]],
    ) -> Finding | None:
        path = self.project.path_of(ref.module)
        return self._taint_finding(
            res,
            sink_desc=(
                f"flows into argument {arg_index} of "
                f"`{gemm.callee}` at {path}:{gemm.line}"
            ),
            seen=seen,
        )

    def _taint_finding(
        self,
        res: Resolved,
        sink_desc: str,
        seen: set[tuple[str, int, str]],
    ) -> Finding | None:
        taint_path = self.project.path_of(res.taint_module)
        key = (taint_path, res.taint_line, sink_desc)
        if key in seen:
            return None
        seen.add(key)
        return Finding(
            rule="DTY110",
            severity=Severity.ERROR,
            path=taint_path,
            line=res.taint_line,
            col=0,
            message=(
                f"exact quantized value loses exactness here "
                f"({res.taint_reason}) and {sink_desc} — the bit-exact "
                "GEMM contract (docs/performance.md) is broken along "
                "this flow"
            ),
        )


def find_dtype_flow_violations(graph: CallGraph) -> Iterator[Finding]:
    """DTY110 over the whole project."""
    yield from DtypeFlow(graph).findings()


__all__ = ["DtypeFlow", "find_dtype_flow_violations", "Resolved"]

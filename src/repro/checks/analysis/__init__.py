"""Whole-program analysis for :mod:`repro.checks` (every ``repro check``).

The per-file rules in :mod:`repro.checks.rules` are deliberately
syntactic — one AST at a time.  This subpackage adds the project-wide
view needed for rules that are *about* cross-function behavior, and
drives both kinds:

* :mod:`~repro.checks.analysis.summary` — per-module function summaries
  (writes, lock acquisitions, call sites, dtype bases), the only thing
  retained after parsing a module;
* :mod:`~repro.checks.analysis.cache` — content-addressed summary cache
  (blake2b of source) so warm incremental runs skip re-parsing;
* :mod:`~repro.checks.analysis.project` — symbol table + import/method
  resolution over the summaries;
* :mod:`~repro.checks.analysis.callgraph` — call edges, thread-root
  discovery, reachability, must-hold entry locksets;
* :mod:`~repro.checks.analysis.lockset` — unlocked writes (THR201),
  Eraser-style lockset reports (THR210) and static lock-order-inversion
  detection (THR211);
* :mod:`~repro.checks.analysis.dtypeflow` — the dtype-exactness lattice
  behind DTY110;
* :mod:`~repro.checks.analysis.deep` — the driver: per-file rules, then
  the whole-program ones.
"""

from repro.checks.analysis.cache import DEFAULT_CACHE_DIR, SummaryCache
from repro.checks.analysis.callgraph import CallGraph
from repro.checks.analysis.deep import DeepResult, run_deep, run_deep_sources
from repro.checks.analysis.project import Project

__all__ = [
    "DEFAULT_CACHE_DIR",
    "SummaryCache",
    "CallGraph",
    "Project",
    "DeepResult",
    "run_deep",
    "run_deep_sources",
]

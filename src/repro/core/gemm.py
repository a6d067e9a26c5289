"""The one GEMM entry point: :func:`pgemm` is ``a @ b`` plus call counters.

Every inference path in this repo — dense conv, the ODQ sparse fast
path, the QAT backward, float conv, the linear layers — bottoms out in
a GEMM issued through :func:`pgemm`, and ``pgemm(a, b)`` *is*
``np.matmul(a, b)`` on the calling thread.  That makes it:

* the sink the analyzer's dtype flow watches (DTY110: an exactness-
  narrowing value must never reach a GEMM) and the call DTY101 requires
  every GEMM site to go through;
* the call the end-to-end benchmark's launcher (``benchmarks/e2e``)
  wraps to time GEMMs, together with :meth:`GemmDispatch.run` and
  :meth:`DispatchGroup.gemm`.

The paper's accelerator gets its parallelism from PE-array allocation
(Table 1), which :mod:`repro.accel` models; the serving stack gets it
from worker threads.  An earlier row-blocked thread pool here carried
no measured win on the 2-core bench host and was deleted
(``docs/performance.md``).

Compiled inference plans (:mod:`repro.core.plan`) bind a GEMM shape with
:func:`plan_gemm` and share a :class:`DispatchGroup` across consecutive
sparse-path layers; both run the same ``a @ b``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

#: Kept for the end-to-end benchmark's reference session, which passes
#: it to :func:`configure`; nothing reads it.
MIN_BLOCK_MNK_FLOOR = 4 * (1 << 20)


@dataclass
class GemmStats:
    """Advisory process-wide counters (exact under single-threaded use)."""

    calls: int = 0          #: total GEMMs issued through this module
    direct_calls: int = 0   #: every call: each GEMM is one ``a @ b``
    planned_calls: int = 0  #: issued through a plan's GemmDispatch

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "direct_calls": self.direct_calls,
            "planned_calls": self.planned_calls,
        }


_stats_lock = threading.Lock()
_stats = GemmStats()


def configure(
    threads: int | None = None,
    min_flops: float | None = None,
    min_block_mnk: int | None = None,
) -> None:
    """Accept the end-to-end benchmark's ``configure(threads=1, ...)`` call.

    It exists only for that call (``benchmarks/e2e/run.py``).  Every
    GEMM runs on the calling thread, so ``threads`` may only be ``None``
    or ``1`` and the other arguments are ignored.
    """
    if threads not in (None, 1):
        raise ValueError(f"gemm threads must be None or 1, got {threads!r}")


def stats() -> GemmStats:
    """A copy of the process-wide call counters."""
    with _stats_lock:
        return GemmStats(**_stats.as_dict())


def reset_stats() -> None:
    global _stats
    with _stats_lock:
        _stats = GemmStats()


def pgemm(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``a @ b`` (``np.matmul(a, b, out=out)``), counted in :func:`stats`."""
    with _stats_lock:
        _stats.calls += 1
        _stats.direct_calls += 1
    return np.matmul(a, b, out=out)


@dataclass(frozen=True)
class GemmDispatch:
    """One GEMM shape bound by a compiled plan."""

    m: int
    k: int
    n: int
    dtype: np.dtype

    def run(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``a @ b`` for the bound shape (any other shape goes to pgemm)."""
        if a.shape == (self.m, self.k) and b.shape == (self.k, self.n) and \
                a.dtype == self.dtype and b.dtype == self.dtype:
            with _stats_lock:
                _stats.planned_calls += 1
        return pgemm(a, b, out)


def plan_gemm(m: int, k: int, n: int, dtype: np.dtype | type) -> GemmDispatch:
    """Bind one GEMM shape for a compiled plan."""
    return GemmDispatch(m=m, k=k, n=n, dtype=np.dtype(dtype))


class DispatchGroup:
    """The GEMM entry point shared by a run of back-to-back GEMMs.

    A compiled plan gives each run of consecutive sparse-path conv
    layers one group and issues their gathered-row GEMMs through
    :meth:`gemm`, which is :func:`pgemm`.
    """

    def gemm(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``a @ b``, exactly :func:`pgemm`."""
        return pgemm(a, b, out)


__all__ = [
    "pgemm",
    "plan_gemm",
    "GemmDispatch",
    "DispatchGroup",
    "configure",
    "GemmStats",
    "stats",
    "reset_stats",
    "MIN_BLOCK_MNK_FLOOR",
]

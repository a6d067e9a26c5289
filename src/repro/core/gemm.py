"""Process-wide parallel tiled GEMM: row-blocked ``a @ b`` on a thread pool.

Every inference path in this repo — dense conv, the ODQ sparse fast
path, the QAT backward, float conv — bottoms out in a single GEMM, and
the BLAS this image ships is single-threaded.  The paper's accelerator
gets its throughput by partitioning *output* work across PE arrays
(Table 1 dynamic allocation); the software analogue is splitting the
output rows of ``a @ b`` into contiguous blocks and computing each block
on its own thread.  NumPy's ``matmul`` releases the GIL for
float32/float64 operands, so the blocks genuinely run in parallel.

:func:`pgemm` is a drop-in for ``a @ b``:

* **Bit-exact.**  Row-blocking never re-associates any accumulation —
  output row ``i`` is the same ``a[i] @ b`` dot products whichever block
  computes it.  The one real-world hazard is the BLAS dispatching a
  *different kernel* for a small block than for the monolithic call
  (OpenBLAS has small-matrix and GEMV fast paths whose rounding can
  differ), so blocks are floored at :attr:`GemmTuning.min_block_mnk`
  elements of work and the auto-tuner *verifies* that floor empirically
  at pool start, doubling it until slice-GEMMs reproduce the monolithic
  result bit-for-bit (probing plain, transposed-A and transposed-B
  layouts).  ``tests/core/test_gemm.py`` pins ``pgemm(a, b) == a @ b``
  exactly across dtypes/shapes/strides.
* **No small-GEMM regression.**  GEMMs below the auto-tuned FLOP
  crossover (dispatch overhead vs measured GEMM throughput) take the
  direct ``a @ b`` path, so LeNet-scale layers never pay pool latency.
* **One routing decision.**  :func:`route` is the only place that
  decides ``direct`` vs ``rows`` and the block bounds.  It reads the
  live pool width and tuning on every call, so a later
  :func:`configure` takes effect at once for every entry point.
* **Lazy + fork-safe.**  The pool starts on first parallel-eligible
  call; after ``fork`` the worker threads of the parent are gone, so the
  pool detects the PID change and rebuilds itself.

Compiled inference plans (:mod:`repro.core.plan`) bind a GEMM shape
with :func:`plan_gemm` (a :class:`GemmDispatch` that records the route
at compile time for ``repro plan``) and share a :class:`DispatchGroup`
across consecutive sparse-path layers.  Both route every call through
:func:`route`, exactly like :func:`pgemm`.

Configuration
-------------
``REPRO_GEMM_THREADS``
    Pool width, read on first use.  Default ``min(usable cores, 8)``;
    ``1`` disables the pool entirely.  :func:`configure` takes
    precedence over the environment (the serve CLI wires
    ``--gemm-threads`` through it).
``REPRO_GEMM_MIN_FLOPS`` / ``REPRO_GEMM_MIN_BLOCK_MNK``
    Override the auto-tuned parallel crossover / per-block floor.

Observability: each pooled call emits a ``gemm.pool`` span (attrs:
``blocks``, ``threads``, ``rows_per_block``; counters: ``rows``,
``blocks``, ``flops``) feeding the parallelism section of
``repro profile`` (:mod:`repro.obs.profile`), and :func:`stats` exposes
process-wide direct/pooled call counters.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.obs import trace
from repro.utils.host import usable_cores

#: Hard cap on the default pool width (past ~8 threads the row blocks of
#: conv-sized GEMMs drop under the exactness floor anyway).
DEFAULT_MAX_THREADS = 8

#: Starting per-block work floor (``m*n*k`` elements) verified — and
#: doubled if necessary — by the auto-tuner.  Empirically OpenBLAS's
#: small-matrix kernels (whose rounding differs from the main dgemm
#: driver) engage below ~2**20 elements; 4x margin on top of that.
MIN_BLOCK_MNK_FLOOR = 4 * (1 << 20)

#: Ceiling for the verification doubling; if exactness cannot be
#: established below this, the pool refuses to parallelize.
MIN_BLOCK_MNK_CEIL = 64 * (1 << 20)

#: The parallel path must amortize pool dispatch: require the estimated
#: serial GEMM time to exceed this multiple of the measured round-trip
#: dispatch overhead.
DISPATCH_AMORTIZATION = 16.0

#: Absolute floor on the parallel crossover (FLOPs = 2*m*n*k), so even a
#: wildly optimistic overhead measurement cannot push tiny GEMMs into
#: the pool.
MIN_FLOPS_FLOOR = 8.0e6

_BLAS_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


# ---------------------------------------------------------------------------
# configuration / stats


@dataclass(frozen=True)
class GemmTuning:
    """Auto-tuned (or overridden) dispatch parameters."""

    min_flops: float      #: parallel crossover in FLOPs (2*m*n*k)
    min_block_mnk: int    #: per-block m*n*k floor (BLAS kernel-regime guard)
    verified: bool = True  #: block floor empirically confirmed bit-exact


@dataclass
class GemmStats:
    """Advisory process-wide counters (exact under single-threaded use)."""

    calls: int = 0          #: total GEMMs issued through this module
    direct_calls: int = 0   #: served by the direct ``a @ b`` path
    pooled_calls: int = 0   #: served by the row-blocked pool path
    pooled_blocks: int = 0  #: row blocks dispatched in total
    pooled_rows: int = 0    #: output rows computed via the pool
    pooled_flops: int = 0   #: FLOPs routed through the pool
    planned_calls: int = 0  #: issued through a plan's GemmDispatch

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "direct_calls": self.direct_calls,
            "pooled_calls": self.pooled_calls,
            "pooled_blocks": self.pooled_blocks,
            "pooled_rows": self.pooled_rows,
            "pooled_flops": self.pooled_flops,
            "planned_calls": self.planned_calls,
        }


_state_lock = threading.Lock()
_configured_threads: int | None = None
_default_width: int | None = None  #: default_threads(), resolved on first use
_tuning: GemmTuning | None = None
_pool: ThreadPoolExecutor | None = None
_pool_threads: int = 0
_pool_pid: int | None = None
_stats = GemmStats()


def default_threads() -> int:
    """Pool width from ``REPRO_GEMM_THREADS`` or ``min(usable cores, 8)``."""
    env = os.environ.get("REPRO_GEMM_THREADS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(
                f"REPRO_GEMM_THREADS must be an integer, got {env!r}"
            ) from exc
        return max(1, value)
    return max(1, min(usable_cores(), DEFAULT_MAX_THREADS))


def gemm_threads() -> int:
    """The effective pool width.

    An explicit :func:`configure` wins; otherwise :func:`default_threads`,
    resolved once per process (every GEMM routes through here, and the
    affinity lookup is a syscall) and re-read after :func:`reset`.
    """
    global _default_width
    with _state_lock:
        if _configured_threads is not None:
            return _configured_threads
        if _default_width is not None:
            return _default_width
    width = default_threads()
    with _state_lock:
        _default_width = width
    return width


def configure(
    threads: int | None = None,
    min_flops: float | None = None,
    min_block_mnk: int | None = None,
) -> None:
    """Override pool width and/or dispatch tuning for this process.

    ``threads=None`` leaves the width as-is; pass an explicit value to
    pin it (``1`` disables the pool).  Tuning overrides replace the
    auto-tuned values; ``None`` keeps them.  Every later GEMM — direct
    or through a plan — routes with the new values; the running pool is
    rebuilt lazily on the next pooled call if the width changed.
    """
    global _configured_threads, _tuning
    with _state_lock:
        if threads is not None:
            if threads < 1:
                raise ValueError("gemm threads must be >= 1")
            _configured_threads = int(threads)
        if min_flops is not None or min_block_mnk is not None:
            base = _tuning or GemmTuning(MIN_FLOPS_FLOOR, MIN_BLOCK_MNK_FLOOR)
            _tuning = GemmTuning(
                min_flops=float(min_flops) if min_flops is not None else base.min_flops,
                min_block_mnk=(
                    int(min_block_mnk) if min_block_mnk is not None
                    else base.min_block_mnk
                ),
                verified=base.verified,
            )


def shutdown(wait: bool = True) -> None:
    """Stop the worker threads (tests / fork hygiene).  Lazily restarts."""
    global _pool, _pool_pid
    with _state_lock:
        pool, _pool, _pool_pid = _pool, None, None
    if pool is not None:
        pool.shutdown(wait=wait)


def reset(threads: bool = True) -> None:
    """Forget configuration, tuning and stats (test isolation helper)."""
    global _configured_threads, _default_width, _tuning, _stats
    shutdown()
    with _state_lock:
        if threads:
            _configured_threads = None
        _default_width = None
        _tuning = None
        _stats = GemmStats()


def stats() -> GemmStats:
    """A copy of the process-wide call counters."""
    with _state_lock:
        return GemmStats(**_stats.as_dict())


def reset_stats() -> None:
    global _stats
    with _state_lock:
        _stats = GemmStats()


# ---------------------------------------------------------------------------
# auto-tuning


def _measure_dispatch_overhead(pool: ThreadPoolExecutor, threads: int) -> float:
    """Min round-trip seconds to fan out+join ``threads`` no-op tasks."""
    def _noop() -> None:
        pass

    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        futures = [pool.submit(_noop) for _ in range(max(1, threads - 1))]
        for f in futures:
            f.result()
        best = min(best, time.perf_counter() - t0)
    return max(best, 1e-6)


def _measure_gemm_rate() -> float:
    """Serial GEMM throughput in FLOPs/second (min-of-3 on a 192^3 case)."""
    a = np.ones((192, 192))
    b = np.ones((192, 192))
    flops = 2.0 * 192 ** 3
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return flops / max(best, 1e-9)


def _block_floor_is_exact(min_block_mnk: int) -> bool:
    """Empirically confirm slice-GEMMs at the floor match the full GEMM.

    Probes the operand layouts the conv call sites actually produce:
    plain C-contiguous ``a``/``b``, transposed ``a`` (the QAT weight
    gradient ``cols.T @ gmat``), transposed ``b`` (the reshaped filter
    bank ``w.reshape(c_out, -1).T``) and a narrow-N case (few output
    channels), in both float64 and float32.
    """
    rng = np.random.default_rng(0xC0FFEE)
    shapes = ((1152, 256), (576, 64), (800, 16))
    for dtype in (np.float64, np.float32):
        for k, n in shapes:
            bh = max(1, -(-min_block_mnk // (k * n)))  # rows per block
            m = 3 * bh + 7
            a = rng.standard_normal((m, k)).astype(dtype)
            b = rng.standard_normal((k, n)).astype(dtype)
            variants = [
                (a, b),
                (np.ascontiguousarray(a.T).T, b),           # transposed A
                (a, np.ascontiguousarray(b.T).T),           # transposed B
            ]
            for av, bv in variants:
                full = av @ bv
                for start in (0, bh, 2 * bh):
                    stop = min(m, start + bh)
                    if not np.array_equal(av[start:stop] @ bv, full[start:stop]):
                        return False
    return True


def _autotune(pool: ThreadPoolExecutor, threads: int) -> GemmTuning:
    """Measure the crossover + verify the block floor, once per process."""
    env_flops = os.environ.get("REPRO_GEMM_MIN_FLOPS", "").strip()
    env_block = os.environ.get("REPRO_GEMM_MIN_BLOCK_MNK", "").strip()

    if env_flops:
        min_flops = max(float(env_flops), 0.0)
    else:
        overhead = _measure_dispatch_overhead(pool, threads)
        rate = _measure_gemm_rate()
        min_flops = max(MIN_FLOPS_FLOOR, DISPATCH_AMORTIZATION * overhead * rate)
        min_flops = min(min_flops, 5.0e8)  # degenerate-timer guard

    verified = True
    if env_block:
        min_block = max(int(env_block), 1)
    else:
        min_block = MIN_BLOCK_MNK_FLOOR
        while not _block_floor_is_exact(min_block):
            min_block *= 2
            if min_block > MIN_BLOCK_MNK_CEIL:
                # Cannot establish bit-exact row-blocking on this BLAS:
                # refuse to parallelize rather than break exactness.
                verified = False
                min_flops = float("inf")
                break
    return GemmTuning(min_flops=min_flops, min_block_mnk=min_block,
                      verified=verified)


def tuning() -> GemmTuning:
    """The active tuning (auto-tunes on first call if needed)."""
    global _tuning
    with _state_lock:
        if _tuning is not None:
            return _tuning
    threads = gemm_threads()
    pool = _get_pool(threads)
    tuned = _autotune(pool, threads)
    with _state_lock:
        if _tuning is None:
            _tuning = tuned
        return _tuning


# ---------------------------------------------------------------------------
# routing


class Route(NamedTuple):
    """How one GEMM shape runs right now."""

    kind: str                 #: ``direct`` | ``rows``
    bounds: tuple[int, ...]   #: row cut points (empty for ``direct``)
    threads: int              #: live pool width


def _bounds(size: int, nblocks: int) -> tuple[int, ...]:
    """Contiguous block boundaries: ``nblocks + 1`` cut points over size."""
    base, rem = divmod(size, nblocks)
    bounds = [0]
    for i in range(nblocks):
        bounds.append(bounds[-1] + base + (1 if i < rem else 0))
    return tuple(bounds)


def route(m: int, k: int, n: int, dtype: np.dtype | type) -> Route:
    """Route an ``(m, k) @ (k, n)`` GEMM: ``direct`` or row-blocked.

    Reads the live pool width and tuning.  Row blocking needs a
    float32/float64 GEMM of at least ``min_flops`` whose rows split into
    >= 2 blocks of at least the verified ``min_block_mnk`` work each;
    everything else (including short-``m``/wide-``n`` fc shapes) runs
    direct.  One thread never triggers auto-tuning.
    """
    threads = gemm_threads()
    if threads > 1 and np.dtype(dtype) in _BLAS_DTYPES and min(m, k, n) > 0:
        mnk = m * k * n
        tune = tuning()
        if 2.0 * mnk >= tune.min_flops:
            nblocks = min(threads, m, mnk // tune.min_block_mnk)
            if nblocks >= 2:
                return Route("rows", _bounds(m, nblocks), threads)
    return Route("direct", (), threads)


# ---------------------------------------------------------------------------
# the pool


def _get_pool(threads: int) -> ThreadPoolExecutor:
    """Lazily (re)build the worker pool; PID change ⇒ post-fork rebuild."""
    global _pool, _pool_threads, _pool_pid
    pid = os.getpid()
    with _state_lock:
        if _pool is not None and _pool_pid == pid and _pool_threads == threads:
            return _pool
        stale = _pool if (_pool is not None and _pool_pid == pid) else None
        _pool = ThreadPoolExecutor(
            max_workers=max(1, threads), thread_name_prefix="gemm"
        )
        _pool_threads = threads
        _pool_pid = pid
        pool = _pool
    if stale is not None:
        stale.shutdown(wait=False)
    return pool


def _direct(a: np.ndarray, b: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    with _state_lock:
        _stats.calls += 1
        _stats.direct_calls += 1
    if out is None:
        return a @ b
    return np.matmul(a, b, out=out)


def _mm_block(a_blk: np.ndarray, b: np.ndarray, out_blk: np.ndarray) -> None:
    np.matmul(a_blk, b, out=out_blk)


def _result_buffer(
    out: np.ndarray | None, m: int, n: int, dtype: np.dtype
) -> np.ndarray:
    target_ok = (
        isinstance(out, np.ndarray)
        and out.shape == (m, n)
        and out.dtype == dtype
        and out.flags.c_contiguous
        and out.flags.writeable
    )
    return out if target_ok else np.empty((m, n), dtype=dtype)


def _pooled_rows(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None,
    bounds: tuple[int, ...],
    threads: int,
) -> np.ndarray:
    """Row-blocked pooled product over ``bounds`` (bit-exact)."""
    m, n = a.shape[0], b.shape[1]
    nblocks = len(bounds) - 1
    mnk = m * a.shape[1] * n
    result = _result_buffer(out, m, n, a.dtype)

    with trace.span(
        "gemm.pool",
        blocks=nblocks,
        threads=threads,
        rows_per_block=bounds[1],
    ) as sp:
        pool = _get_pool(threads)
        futures = [
            pool.submit(_mm_block, a[s:e], b, result[s:e])
            for s, e in zip(bounds[1:-1], bounds[2:])
        ]
        # The caller thread computes the first block while the pool
        # works on the rest (one fewer dispatch, no idle caller).
        _mm_block(a[: bounds[1]], b, result[: bounds[1]])
        for f in futures:
            f.result()
        sp.add("rows", m)
        sp.add("blocks", nblocks)
        sp.add("flops", 2 * mnk)

    with _state_lock:
        _stats.calls += 1
        _stats.pooled_calls += 1
        _stats.pooled_blocks += nblocks
        _stats.pooled_rows += m
        _stats.pooled_flops += 2 * mnk

    if out is not None and result is not out:
        out[...] = result
        return out
    return result


def _routed(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None
) -> np.ndarray:
    """``a @ b`` along :func:`route`'s decision for these operands."""
    if (
        a.ndim != 2
        or b.ndim != 2
        or a.dtype != b.dtype
        or a.shape[1] != b.shape[0]
    ):
        return _direct(a, b, out)
    r = route(a.shape[0], a.shape[1], b.shape[1], a.dtype)
    if r.kind == "rows":
        return _pooled_rows(a, b, out, r.bounds, r.threads)
    return _direct(a, b, out)


def pgemm(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Parallel ``a @ b``, bit-identical to the serial product.

    2-D float32/float64 operands that :func:`route` sends to ``rows``
    are split into contiguous row blocks of ``a`` and multiplied on the
    process-wide thread pool, each block writing its slice of a shared
    preallocated output.  Everything else — small GEMMs, 1 configured
    thread, integer/odd-dimensional operands, mixed dtypes — falls back
    to the direct path, which *is* ``a @ b``.

    ``out``, when given, receives the result (and is returned); a
    C-contiguous ``(m, n)`` array of the result dtype is filled in
    place, anything else is filled via a temporary.
    """
    return _routed(np.asarray(a), np.asarray(b), out)


# ---------------------------------------------------------------------------
# plan entry points


@dataclass(frozen=True)
class GemmDispatch:
    """One GEMM shape bound by a compiled plan.

    ``kind`` is the route :func:`route` chose at plan time, kept for
    ``repro plan`` output.  :meth:`run` routes each call afresh, so a
    later :func:`configure` applies to planned GEMMs too.
    """

    kind: str                 #: ``direct`` | ``rows`` at plan time
    m: int
    k: int
    n: int
    dtype: np.dtype

    def run(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``a @ b`` for the bound shape (any other shape goes to pgemm)."""
        if a.shape != (self.m, self.k) or b.shape != (self.k, self.n) or \
                a.dtype != self.dtype or b.dtype != self.dtype:
            return pgemm(a, b, out)
        with _state_lock:
            _stats.planned_calls += 1
        return _routed(a, b, out)


def plan_gemm(m: int, k: int, n: int, dtype: np.dtype | type) -> GemmDispatch:
    """Bind one GEMM shape for a compiled plan."""
    dtype = np.dtype(dtype)
    return GemmDispatch(kind=route(m, k, n, dtype).kind, m=m, k=k, n=n,
                        dtype=dtype)


class DispatchGroup:
    """The GEMM entry point shared by a run of back-to-back GEMMs.

    A compiled plan gives each run of consecutive sparse-path conv
    layers one group and issues their gathered-row GEMMs through
    :meth:`gemm`, which routes exactly like :func:`pgemm`.
    """

    def gemm(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``a @ b`` (same routing as :func:`pgemm`)."""
        return _routed(a, b, out)


__all__ = [
    "pgemm",
    "route",
    "Route",
    "plan_gemm",
    "GemmDispatch",
    "DispatchGroup",
    "configure",
    "gemm_threads",
    "default_threads",
    "tuning",
    "GemmTuning",
    "GemmStats",
    "stats",
    "reset_stats",
    "reset",
    "shutdown",
    "DEFAULT_MAX_THREADS",
]

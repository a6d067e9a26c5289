"""Closed-loop serving throughput benchmark.

Quantifies why the serving subsystem exists, by pushing the same request
stream through three execution paths:

``naive``
    what the one-shot scripts do — rebuild the model, recalibrate, and
    re-pack weights for *every* request, then infer one image;
``cached``
    a :class:`~repro.serve.session.ModelSession` built once, requests run
    one-at-a-time through the cached engine;
``batched``
    the full serving stack — cached session + dynamic micro-batcher +
    worker pool, with all requests in flight concurrently.

Outputs requests/sec per path and the speedup of each path over naive.
Used by ``python -m repro bench-serve`` and
``benchmarks/bench_serve_throughput.py`` (which persists the table under
``results/``).
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.serve.batcher import MicroBatcher
from repro.serve.config import ServeConfig
from repro.serve.metrics import MetricsRegistry
from repro.serve.session import ModelSession, SessionManager
from repro.serve.worker import WorkerPool
from repro.utils.report import ascii_table


@dataclass
class PathResult:
    """Timing for one execution path."""

    name: str
    requests: int
    seconds: float
    #: Per-worker utilisation for pooled paths: ``[{"name", "batches",
    #: "images", "busy_seconds", "busy_fraction"}, ...]``.  The busy
    #: fraction is ``WorkerStats.busy_seconds / wall-clock`` — the share
    #: of the benchmark window the worker spent inside ``engine.infer``,
    #: which is what makes worker/GEMM-thread scaling runs interpretable
    #: (low fractions mean the pool is starved or oversubscribed, not
    #: slow).  Empty for single-threaded paths.
    worker_busy: list = field(default_factory=list)

    @property
    def requests_per_second(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else float("inf")


@dataclass
class ServeBenchResult:
    """All three paths plus derived speedups."""

    config: ServeConfig
    paths: dict[str, PathResult] = field(default_factory=dict)
    #: Per-layer result-generation dispatch census from the batched
    #: pool's engines (see :meth:`repro.serve.worker.WorkerPool.exec_census`).
    exec_census: dict = field(default_factory=dict)

    def speedup(self, path: str, baseline: str = "naive") -> float:
        return (
            self.paths[path].requests_per_second
            / self.paths[baseline].requests_per_second
        )

    def render(self) -> str:
        rows = [
            [
                p.name,
                p.requests,
                f"{p.seconds:.3f}",
                f"{p.requests_per_second:.2f}",
                f"{self.speedup(p.name):.1f}x",
            ]
            for p in self.paths.values()
        ]
        title = (
            f"serving throughput — model={self.config.model} "
            f"scheme={self.config.scheme} exec={self.config.exec_path} "
            f"batch<= {self.config.max_batch_size} "
            f"workers={self.config.workers}"
        )
        parts = [ascii_table(
            ["path", "requests", "seconds", "req/s", "vs naive"], rows, title=title
        )]
        busy_rows = [
            [
                w["name"],
                w["batches"],
                w["images"],
                f"{w['busy_seconds']:.3f}",
                f"{w['busy_fraction'] * 100.0:.1f}%",
            ]
            for p in self.paths.values()
            for w in p.worker_busy
        ]
        if busy_rows:
            parts.append(ascii_table(
                ["worker", "batches", "images", "busy s", "busy frac"],
                busy_rows,
                title="worker utilisation (batched path)",
            ))
        if self.exec_census:
            census_rows = [
                [
                    layer,
                    "|".join(
                        f"{p}:{n}" for p, n in sorted(c["path_calls"].items())
                    ),
                    f"{c['rows_computed']:,}/{c['rows_total']:,}",
                ]
                for layer, c in self.exec_census.items()
            ]
            parts.append(ascii_table(
                ["layer", "path calls", "rows computed"],
                census_rows,
                title="result-generation dispatch census (batched path)",
            ))
        return "\n\n".join(parts)

    def as_dict(self) -> dict:
        out = {
            name: {
                "requests": p.requests,
                "seconds": round(p.seconds, 4),
                "requests_per_second": round(p.requests_per_second, 3),
                "speedup_vs_naive": round(self.speedup(name), 2),
                **(
                    {"worker_busy": p.worker_busy}
                    if p.worker_busy
                    else {}
                ),
            }
            for name, p in self.paths.items()
        }
        if self.exec_census:
            out["exec_census"] = self.exec_census
        return out


def _request_images(session: ModelSession, n: int, seed: int) -> list[np.ndarray]:
    """n single-image requests drawn from the session's sample pool."""
    rng = np.random.default_rng(seed)
    pool = session.sample_inputs
    return [pool[rng.integers(len(pool))][None] for _ in range(n)]


def run_naive(config: ServeConfig, requests: int) -> PathResult:
    """Rebuild session per request (the pre-serving status quo)."""
    probe = ModelSession(config)  # build once just to draw request images
    images = _request_images(probe, requests, config.seed + 1)
    t0 = time.perf_counter()
    for img in images:
        session = ModelSession(config)  # the whole pipeline, every time
        session.engine.infer(img)
    return PathResult("naive", requests, time.perf_counter() - t0)


def run_cached(session: ModelSession, requests: int, seed: int) -> PathResult:
    """One cached session, serial single-image inference."""
    images = _request_images(session, requests, seed + 2)
    t0 = time.perf_counter()
    for img in images:
        session.engine.infer(img)
    return PathResult("cached", requests, time.perf_counter() - t0)


def run_batched(
    session: ModelSession, config: ServeConfig, requests: int, seed: int,
    census_out: dict | None = None,
) -> PathResult:
    """Cached session + micro-batcher + worker pool, all requests in flight.

    ``census_out``, when given, receives the pool's per-layer
    result-generation dispatch census (collected before shutdown).
    """
    images = _request_images(session, requests, seed + 3)
    # The cached path above ran on session.engine, which becomes worker
    # 0; start from clean records so the census covers only this run.
    session.engine.reset_records()
    batcher = MicroBatcher(max_batch_size=config.max_batch_size)
    pool = WorkerPool(
        session, batcher, metrics=MetricsRegistry(), num_workers=config.workers
    )
    with pool:
        t0 = time.perf_counter()
        futures: list[Future] = [batcher.submit(img) for img in images]
        for fut in futures:
            fut.result(timeout=120)
        elapsed = time.perf_counter() - t0
        worker_busy = [
            {
                **w,
                "busy_fraction": round(
                    (w["busy_seconds"] / elapsed) if elapsed > 0 else 0.0, 4
                ),
            }
            for w in pool.stats()
        ]
        if census_out is not None:
            census_out.update(pool.exec_census())
    return PathResult("batched", requests, elapsed, worker_busy=worker_busy)


def run_serve_benchmark(
    config: ServeConfig | None = None,
    requests: int = 64,
    naive_requests: int = 4,
    sessions: SessionManager | None = None,
) -> ServeBenchResult:
    """Run all paths and return the comparison.

    ``naive_requests`` is smaller because the naive path pays a full
    session build per request; its requests/sec rate is what's compared.
    """
    config = config or ServeConfig()
    result = ServeBenchResult(config=config)
    result.paths["naive"] = run_naive(config, naive_requests)

    manager = sessions or SessionManager()
    session = manager.get_or_create(config)
    result.paths["cached"] = run_cached(session, requests, config.seed)
    result.paths["batched"] = run_batched(
        session, config, requests, config.seed, census_out=result.exec_census
    )
    return result


__all__ = [
    "PathResult",
    "ServeBenchResult",
    "run_naive",
    "run_cached",
    "run_batched",
    "run_serve_benchmark",
]

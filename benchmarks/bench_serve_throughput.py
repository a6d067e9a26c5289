"""Serving throughput — naive rebuild-per-request vs cached session vs
cached session + dynamic micro-batching (the ``repro.serve`` headline).

The one-shot scripts pay the whole build pipeline (model init,
calibration, DoReFa bit-plane packing) on every request; the serving
subsystem amortizes it once per ``(model, scheme, threshold)`` and then
coalesces requests into engine micro-batches.  Shape asserted: cached
beats naive, batched beats cached, and the full stack clears the >= 5x
bar over naive by a wide margin.
"""

from repro.serve.bench import run_serve_benchmark
from repro.serve.config import ServeConfig
from repro.serve.metrics import MetricsRegistry
from repro.serve.session import SessionManager
from repro.serve.worker import WorkerPool
from repro.serve.batcher import MicroBatcher

CONFIG = ServeConfig(
    model="lenet",
    scheme="odq",
    dataset="mnist",
    train_epochs=0,
    calib_images=64,
    max_batch_size=8,
    workers=2,
)


def test_serve_throughput(benchmark, emit):
    manager = SessionManager()
    session = manager.get_or_create(CONFIG)

    # Benchmark the serving hot path: a full micro-batch through the pool.
    images = [session.sample_inputs[i % len(session.sample_inputs)][None]
              for i in range(CONFIG.max_batch_size)]
    batcher = MicroBatcher(max_batch_size=CONFIG.max_batch_size)
    pool = WorkerPool(session, batcher, metrics=MetricsRegistry(),
                      num_workers=CONFIG.workers)
    with pool:
        def kernel():
            futures = [batcher.submit(img) for img in images]
            return [f.result(timeout=60) for f in futures]

        benchmark(kernel)

    # The three-path comparison (this is the committed artefact).
    result = run_serve_benchmark(
        CONFIG, requests=64, naive_requests=4, sessions=manager
    )
    lines = [result.render(), ""]
    lines.append(
        f"cached  vs naive: {result.speedup('cached'):6.1f}x\n"
        f"batched vs naive: {result.speedup('batched'):6.1f}x\n"
        f"batched vs cached: {result.speedup('batched', 'cached'):5.1f}x"
    )
    busy = result.paths["batched"].worker_busy
    if busy:
        # Per-worker busy fraction makes thread-scaling runs readable:
        # near-1.0 fractions mean the pool was compute-bound; low
        # fractions mean batching starved the workers (or GEMM threads
        # oversubscribed the cores).
        lines.append("")
        lines.append("worker busy fractions (batched): " + "  ".join(
            f"{w['name']}={w['busy_fraction'] * 100.0:.1f}%" for w in busy
        ))
    emit("serve_throughput", "\n".join(lines))

    naive = result.paths["naive"].requests_per_second
    cached = result.paths["cached"].requests_per_second
    batched = result.paths["batched"].requests_per_second
    assert cached > naive, "session cache must beat rebuild-per-request"
    assert batched > cached, "micro-batching must beat serial single-image"
    # The acceptance bar (observed ~20-30x on the small scale).
    assert batched >= 5.0 * naive, (
        f"batched path only {batched / naive:.1f}x over naive"
    )

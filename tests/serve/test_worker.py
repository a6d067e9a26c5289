"""Worker pool: dispatch, metrics, per-worker stats, graceful shutdown."""

import threading

import numpy as np
import pytest

from repro.serve.batcher import MicroBatcher
from repro.serve.metrics import MetricsRegistry
from repro.serve.worker import WorkerPool


def _drive(session, n_requests: int, workers: int = 2, max_batch: int = 4):
    """Push n single-image requests through a fresh pool; return artifacts."""
    batcher = MicroBatcher(max_batch_size=max_batch)
    metrics = MetricsRegistry()
    pool = WorkerPool(session, batcher, metrics=metrics, num_workers=workers)
    with pool:
        futures = [
            batcher.submit(session.sample_inputs[i % len(session.sample_inputs)][None])
            for i in range(n_requests)
        ]
        results = [f.result(timeout=30) for f in futures]
    return pool, metrics, results


class TestDispatch:
    def test_all_futures_resolve_with_logit_rows(self, session):
        _, _, results = _drive(session, 10)
        assert len(results) == 10
        for rows in results:
            assert rows.shape == (1, session.num_classes)

    def test_results_match_direct_engine_outputs(self, session):
        batcher = MicroBatcher(max_batch_size=4)
        pool = WorkerPool(session, batcher, metrics=MetricsRegistry(), num_workers=1)
        x = session.sample_inputs[:3]
        expected = session.engine.infer(x)
        # Queued before the worker starts, so the three form one batch:
        # activation ranges are per batch, so outputs depend on its makeup.
        futures = [batcher.submit(x[i][None]) for i in range(3)]
        with pool:
            got = np.concatenate([f.result(timeout=30) for f in futures])
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_metrics_account_for_every_request(self, session):
        _, metrics, _ = _drive(session, 12)
        snap = metrics.as_dict()
        assert snap["counters"]["requests_total"] == 12
        assert snap["counters"]["images_total"] == 12
        assert snap["counters"]["errors_total"] == 0
        assert snap["histograms"]["batch_size"]["sum"] == 12
        assert snap["histograms"]["queue_wait_ms"]["count"] == 12
        assert snap["histograms"]["infer_ms"]["count"] >= 1

    def test_sensitivity_gauges_published(self, session):
        _, metrics, _ = _drive(session, 4)
        gauges = metrics.as_dict()["gauges"]
        sens = {k: v for k, v in gauges.items() if k.startswith("sensitive_ratio:")}
        assert len(sens) == len(session.engine.executors)
        assert all(0.0 <= v <= 1.0 for v in sens.values())

    def test_bad_input_fails_future_not_worker(self, session):
        batcher = MicroBatcher(max_batch_size=4)
        pool = WorkerPool(session, batcher, metrics=MetricsRegistry(), num_workers=1)
        with pool:
            bad = batcher.submit(np.zeros((1, 7, 9, 9)))  # wrong shape
            with pytest.raises(Exception):
                bad.result(timeout=30)
            # the worker survived and still serves good requests
            good = batcher.submit(session.sample_inputs[0][None])
            assert good.result(timeout=30).shape == (1, session.num_classes)
        assert pool.stats()[0]["errors"] == 1


class TestLifecycle:
    def test_workers_start_and_join(self, session):
        pool, _, _ = _drive(session, 4)
        assert pool.alive_workers == 0  # all joined after shutdown

    def test_shutdown_leaves_no_threads(self, session):
        before = set(threading.enumerate())
        _drive(session, 4)
        leaked = [
            t for t in set(threading.enumerate()) - before
            if t.name.startswith("serve-worker")
        ]
        assert leaked == []

    def test_double_start_rejected(self, session):
        batcher = MicroBatcher()
        pool = WorkerPool(session, batcher, num_workers=1)
        pool.start()
        try:
            with pytest.raises(RuntimeError):
                pool.start()
        finally:
            pool.shutdown()

    def test_per_worker_stats_cover_all_batches(self, session):
        pool, metrics, _ = _drive(session, 16, workers=2)
        stats = pool.stats()
        assert len(stats) == 2
        total_images = sum(s["images"] for s in stats)
        assert total_images == 16

    def test_zero_workers_rejected(self, session):
        with pytest.raises(ValueError):
            WorkerPool(session, MicroBatcher(), num_workers=0)

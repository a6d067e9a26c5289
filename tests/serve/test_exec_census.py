"""Result-generation dispatch census through the serving stack.

Two claims: the configured ``exec_path`` is honored end-to-end
(ServeConfig -> session -> engine executors), and the worker pool
aggregates and publishes per-layer ``exec_*`` gauges to the metrics
registry (and thus /metrics, Prometheus and JSON alike) while its
per-worker stats account for every image and stay within wall time.
"""

import time

import pytest

from repro.obs.exporters import prometheus_text
from repro.serve.batcher import MicroBatcher
from repro.serve.config import ServeConfig
from repro.serve.metrics import MetricsRegistry
from repro.serve.session import ModelSession
from repro.serve.worker import WorkerPool


def _forced_path_config(exec_path: str) -> ServeConfig:
    return ServeConfig(
        model="lenet",
        scheme="odq",
        dataset="mnist",
        train_epochs=0,
        calib_images=16,
        max_batch_size=4,
        workers=1,
        port=0,
        exec_path=exec_path,
    )


class TestExecPathHonored:
    @pytest.mark.parametrize("exec_path", ["dense", "sparse"])
    def test_forced_path_reaches_executors(self, exec_path):
        """ServeConfig.exec_path must land on every ODQ executor and the
        census must show only the forced path dispatched."""
        sess = ModelSession(_forced_path_config(exec_path))
        sess.engine.infer(sess.sample_inputs[:2])
        paths = set()
        for rec in sess.engine.records.values():
            paths |= set(rec.path_calls)
        assert paths == {exec_path}


class TestCensusGauges:
    def _drive(self, session, n: int = 6):
        batcher = MicroBatcher(max_batch_size=4)
        metrics = MetricsRegistry()
        pool = WorkerPool(session, batcher, metrics=metrics, num_workers=2)
        session.engine.reset_records()
        with pool:
            t0 = time.perf_counter()
            futures = [
                batcher.submit(
                    session.sample_inputs[i % len(session.sample_inputs)][None]
                )
                for i in range(n)
            ]
            for f in futures:
                f.result(timeout=30)
            wall = time.perf_counter() - t0
            census = pool.exec_census()
        # Read after shutdown joined the workers: each bumps its stats
        # just after completing a batch.  Every image is counted once,
        # and no worker was inside engine.infer longer than the run.
        stats = pool.stats()
        assert sum(w["images"] for w in stats) == n
        assert all(0.0 <= w["busy_seconds"] <= wall for w in stats)
        return metrics, census

    def test_pool_census_sums_rows(self, session):
        _, census = self._drive(session)
        assert census, "ODQ session must produce an exec census"
        for layer, c in census.items():
            assert c["rows_total"] > 0
            assert 0 < c["rows_computed"] <= c["rows_total"]
            assert c["path_calls"] and all(
                p in ("dense", "sparse") for p in c["path_calls"]
            )

    def test_gauges_published_per_layer(self, session):
        metrics, census = self._drive(session)
        gauges = metrics.as_dict()["gauges"]
        for layer, c in census.items():
            assert gauges[f"exec_rows_total:{layer}"] == c["rows_total"]
            assert gauges[f"exec_rows_computed:{layer}"] == c["rows_computed"]
            for path, calls in c["path_calls"].items():
                assert gauges[f"exec_path_calls_{path}:{layer}"] == calls

    def test_prometheus_export_labels_layers(self, session):
        metrics, census = self._drive(session)
        text = prometheus_text(metrics.as_dict())
        layer = next(iter(census))
        assert "repro_exec_rows_computed{" in text
        assert f'layer="{layer}"' in text

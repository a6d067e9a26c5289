"""The census gauges are built when the registry is read, not per batch.

After a batch the worker only folds the batch into the drift EWMAs (and
logs a band crossing); the ``sensitive_ratio:`` / ``exec_*`` and
``drift_*`` gauges are set by the registry's collectors when
``/metrics`` or ``/stats`` reads it.
"""

import io
import json
from collections import Counter

import numpy as np

from repro.obs import log as obs_log
from repro.obs.drift import DriftMonitor
from repro.serve.batcher import MicroBatcher
from repro.serve.metrics import MetricsRegistry
from repro.serve.worker import WorkerPool


def _serve(session, images, *, workers=2, drift=None, metrics=None):
    """Serve ``images`` one per request through a fresh pool, then join
    it, so every batch's bookkeeping has landed."""
    metrics = metrics if metrics is not None else MetricsRegistry()
    batcher = MicroBatcher(max_batch_size=4)
    pool = WorkerPool(session, batcher, metrics=metrics, num_workers=workers,
                      drift=drift)
    with pool:
        futures = [batcher.submit(img[None]) for img in images]
        for f in futures:
            f.result(timeout=30)
    return pool, metrics


def _images(session, n):
    return [session.sample_inputs[i % len(session.sample_inputs)] for i in range(n)]


class TestNothingPublishedPerBatch:
    def test_complete_sets_no_gauge(self, session, monkeypatch):
        calls = Counter()
        gauge = MetricsRegistry.gauge

        def counting(self, name, help=""):
            calls[name.partition(":")[0]] += 1
            return gauge(self, name, help)

        monkeypatch.setattr(MetricsRegistry, "gauge", counting)
        drift = DriftMonitor(baseline=session.baseline)
        pool, metrics = _serve(session, _images(session, 8), drift=drift)
        assert drift.observations >= 1
        assert not calls, "the worker set gauges after a batch"
        metrics.as_dict()
        assert calls["sensitive_ratio"] == len(session.engine.executors)


class TestScrapeMatchesRecords:
    def test_gauges_equal_census_of_both_workers(self, session):
        session.engine.reset_records()
        pool, metrics = _serve(session, _images(session, 12))
        assert sum(w["batches"] for w in pool.stats()) >= 2
        # Worker 0's engine is the session's: traffic it serves after
        # the last batch shows on the next read, as the records stand.
        session.engine.infer(session.sample_inputs[:2])
        gauges = metrics.as_dict()["gauges"]
        densities = pool.layer_densities()
        assert densities
        for layer, density in densities.items():
            assert gauges[f"sensitive_ratio:{layer}"] == density
        census = pool.exec_census()
        assert census
        for layer, c in census.items():
            assert gauges[f"exec_rows_total:{layer}"] == c["rows_total"]
            assert gauges[f"exec_rows_computed:{layer}"] == c["rows_computed"]
            for path, calls in c["path_calls"].items():
                assert gauges[f"exec_path_calls_{path}:{layer}"] == calls
        # JSON, Prometheus and /stats read the same collected values.
        layer, density = next(iter(densities.items()))
        assert f"sensitive_ratio:{layer}" in metrics.render()
        assert "repro_sensitive_ratio{" in metrics.prometheus()

    def test_scrape_during_a_new_path_key(self, session, monkeypatch):
        """A worker that dispatches a path for the first time adds a key
        to its record's ``path_calls`` while a scrape may be reading it;
        the scrape must not iterate the live dict."""
        pool, metrics = _serve(session, _images(session, 2), workers=1)
        rec = next(iter(pool._workers[0].engine.records.values()))

        class AddsDenseMidRead(Counter):
            def items(self):
                it = iter(super().items())
                first = next(it)
                self["dense"] += 1  # the worker's first dense call lands
                yield first
                yield from it

        monkeypatch.setattr(rec, "path_calls", AddsDenseMidRead({"sparse": 3}))
        gauges = metrics.as_dict()["gauges"]
        assert gauges[f"exec_path_calls_sparse:{rec.info.name}"] == 3


class TestDriftBetweenScrapes:
    def test_crossing_logs_without_a_scrape(self, session):
        layer = next(iter(session.engine.executors))
        metrics = MetricsRegistry()
        drift = DriftMonitor(baseline=session.baseline, metrics=metrics)
        dark = [np.zeros_like(session.sample_inputs[0])] * 3
        stream = io.StringIO()
        obs_log.configure(stream=stream, json_mode=True)
        try:
            _serve(session, dark, workers=1, drift=drift, metrics=metrics)
        finally:
            obs_log.reset()
        assert layer in drift.alerting()
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert any(e["event"] == "drift_exceeded" and e["layer"] == layer
                   for e in events)
        # help_texts() lists the registry's metrics without collecting.
        assert not any(
            name.startswith("drift_") for name in metrics.help_texts()
        ), "drift gauges were set before any scrape"

        gauges = metrics.as_dict()["gauges"]
        state = drift.snapshot()[layer]
        assert gauges[f"drift_sensitive_ratio:{layer}"] == state["ewma"]
        assert gauges[f"drift_delta:{layer}"] == state["delta"]
        assert gauges[f"drift_alert:{layer}"] == 1.0
        assert gauges[f"drift_sparse_frac:{layer}"] == state["sparse_frac"]

"""DriftMonitor unit tests: EWMA math, band alerts, gauges, baselines."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import log as obs_log
from repro.obs.drift import (
    DriftMonitor,
    _sparse_fraction,
    baseline_from_engine,
)
from repro.serve.metrics import MetricsRegistry


class TestValidation:
    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            DriftMonitor(alpha=alpha)

    @pytest.mark.parametrize("band", [0.0, -0.2])
    def test_bad_band_rejected(self, band):
        with pytest.raises(ValueError):
            DriftMonitor(band=band)


class TestEwma:
    def test_first_sample_sets_ewma_exactly(self):
        mon = DriftMonitor(baseline={"L": 0.2}, alpha=0.5)
        mon.observe({"L": {"sensitive_ratio": 0.4}})
        assert mon.snapshot()["L"]["ewma"] == pytest.approx(0.4)

    def test_ewma_smooths_with_alpha(self):
        mon = DriftMonitor(baseline={"L": 0.2}, alpha=0.5)
        mon.observe({"L": {"sensitive_ratio": 0.4}})
        mon.observe({"L": {"sensitive_ratio": 0.8}})
        # 0.5 * 0.8 + 0.5 * 0.4
        assert mon.snapshot()["L"]["ewma"] == pytest.approx(0.6)

    def test_unknown_layer_self_anchors_baseline(self):
        mon = DriftMonitor()
        mon.observe({"new": {"sensitive_ratio": 0.33}})
        snap = mon.snapshot()["new"]
        assert snap["baseline"] == pytest.approx(0.33)
        assert snap["delta"] == pytest.approx(0.0)
        assert not snap["alert"]

    def test_samples_without_ratio_are_skipped(self):
        mon = DriftMonitor()
        mon.observe({"L": {"path_calls": {"dense": 1}}})
        assert mon.snapshot() == {}


class TestAlerting:
    def test_band_crossing_flags_layer(self):
        mon = DriftMonitor(baseline={"L": 0.2}, alpha=1.0, band=0.15)
        mon.observe({"L": {"sensitive_ratio": 0.5}})
        assert mon.alerting() == ["L"]
        assert mon.snapshot()["L"]["alert"]

    def test_rearmed_when_back_inside_band(self):
        mon = DriftMonitor(baseline={"L": 0.2}, alpha=1.0, band=0.15)
        mon.observe({"L": {"sensitive_ratio": 0.5}})
        mon.observe({"L": {"sensitive_ratio": 0.22}})
        assert mon.alerting() == []
        assert not mon.snapshot()["L"]["alert"]

    def test_warns_once_per_crossing(self):
        stream = io.StringIO()
        obs_log.configure(stream=stream, json_mode=True)
        try:
            mon = DriftMonitor(baseline={"L": 0.2}, alpha=1.0, band=0.15)
            mon.observe({"L": {"sensitive_ratio": 0.5}})   # crossing → warn
            mon.observe({"L": {"sensitive_ratio": 0.6}})   # still out → quiet
            mon.observe({"L": {"sensitive_ratio": 0.21}})  # back in → re-arm
            mon.observe({"L": {"sensitive_ratio": 0.7}})   # crossing → warn
            records = [json.loads(line) for line in stream.getvalue().splitlines()]
            events = [r for r in records if r["event"] == "drift_exceeded"]
            assert len(events) == 2
            assert events[0]["layer"] == "L"
        finally:
            obs_log.reset()


class TestGauges:
    def test_gauges_published_per_layer(self):
        metrics = MetricsRegistry()
        mon = DriftMonitor(baseline={"L": 0.2}, alpha=1.0, band=0.15,
                           metrics=metrics)
        mon.observe({"L": {
            "sensitive_ratio": 0.5,
            "path_calls": {"dense": 1, "sparse": 3},
        }})
        gauges = metrics.as_dict()["gauges"]
        assert gauges["drift_sensitive_ratio:L"] == pytest.approx(0.5)
        assert gauges["drift_delta:L"] == pytest.approx(0.3)
        assert gauges["drift_alert:L"] == 1.0
        assert gauges["drift_sparse_frac:L"] == pytest.approx(0.75)

    def test_alert_gauge_clears(self):
        metrics = MetricsRegistry()
        mon = DriftMonitor(baseline={"L": 0.2}, alpha=1.0, band=0.15,
                           metrics=metrics)
        mon.observe({"L": {"sensitive_ratio": 0.5}})
        mon.observe({"L": {"sensitive_ratio": 0.2}})
        assert metrics.as_dict()["gauges"]["drift_alert:L"] == 0.0


class TestSparseFraction:
    def test_none_and_empty(self):
        assert _sparse_fraction(None) is None
        assert _sparse_fraction({}) is None
        assert _sparse_fraction({"dense": 0}) is None

    def test_non_dense_paths_count_as_sparse(self):
        frac = _sparse_fraction({"dense": 2, "sparse_gather": 1,
                                 "sparse_skip": 1})
        assert frac == pytest.approx(0.5)


class TestBaselineFromEngine:
    def test_ratios_from_records(self):
        class Rec:
            def __init__(self, s, t):
                self.sensitive_total = s
                self.outputs_total = t

        class Engine:
            records = {"C1": Rec(30, 100), "C2": Rec(0, 0)}

        baseline = baseline_from_engine(Engine())
        assert baseline == {"C1": pytest.approx(0.3)}

    def test_engine_without_records(self):
        assert baseline_from_engine(object()) == {}

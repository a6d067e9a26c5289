"""Profiler rollup tests: engine records → per-layer phase report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import ConvLayerInfo, LayerRecord
from repro.core.pipeline import QuantizedInferenceEngine
from repro.core.schemes import odq_scheme
from repro.models.registry import build_model
from repro.obs.profile import (
    PHASES,
    ProfileReport,
    macs_skipped,
    path_summary,
    profile_inference,
    skip_ratio,
)
from repro.obs.trace import Tracer


def _traced_engine_run(images: int = 2):
    """Calibrate a tiny LeNet/ODQ engine and trace one infer batch."""
    rng = np.random.default_rng(0)
    model = build_model("lenet", num_classes=10, rng=rng, in_channels=1,
                        image_size=16)
    engine = QuantizedInferenceEngine(model, odq_scheme(threshold=0.3))
    x = rng.normal(0, 1, size=(images, 1, 16, 16))
    engine.calibrate(np.abs(x))
    from repro.obs import trace as trace_mod

    tracer = trace_mod.get_tracer()
    with tracer.collect(reset=True):
        engine.infer(np.abs(x))
        spans = tracer.spans()
    return engine, spans


def _timing_rows(text: str) -> dict:
    """``{(layer, phase): calls}`` from the rendered per-phase table."""
    rows = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 6 and cells[1] in PHASES:
            rows[cells[0], cells[1]] = int(cells[2])
    return rows


class TestFromEngineSpans:
    @pytest.fixture(scope="class")
    def engine_spans(self):
        return _traced_engine_run()

    def test_all_phases_timed_per_layer(self, engine_spans):
        engine, spans = engine_spans
        report = ProfileReport(engine.records, spans)
        assert set(report.layers) == set(engine.records)
        for rec in report.layers.values():
            assert rec.phase_calls == [1] * len(PHASES)
            assert all(ns > 0 for ns in rec.phase_ns)
        rows = _timing_rows(report.render())
        assert rows == {(n, p): 1 for n in engine.records for p in PHASES}

    def test_mac_census_matches_engine_records(self, engine_spans):
        engine, spans = engine_spans
        text = ProfileReport(engine.records, spans).render()
        for name, rec in engine.records.items():
            insens = rec.outputs_total - rec.sensitive_total
            assert macs_skipped(rec) == insens * rec.info.macs_per_output
            dense = rec.macs["exec_int4"] + macs_skipped(rec)
            assert skip_ratio(rec) == pytest.approx(macs_skipped(rec) / dense)
            for value in (rec.macs["pred_int2"], rec.macs["exec_int4"],
                          macs_skipped(rec)):
                assert f"{value:,}" in text

    def test_render_mentions_phases_and_macs(self, engine_spans):
        engine, spans = engine_spans
        text = ProfileReport(engine.records, spans).render()
        assert "predict_partial" in text
        assert "full_result" in text
        assert "MACs skipped" in text
        assert "phase split" in text

    def test_flame_render_contains_engine_tree(self, engine_spans):
        _, spans = engine_spans
        text = ProfileReport({}, spans).render_flame()
        assert "engine.infer" in text
        assert "odq.run" in text


class TestSyntheticSpans:
    def test_census_from_records(self):
        rec = LayerRecord(info=ConvLayerInfo("L1", 1, 1, 3, 1, 1))  # 9 MACs/output
        rec.outputs_total, rec.sensitive_total = 10, 4
        rec.macs.update(pred_int2=90, exec_int4=36)
        rec.path_calls.update(dense=1, sparse=3)
        rec.phase_ns[PHASES.index("predict_partial")] = 2_000_000
        rec.phase_calls[PHASES.index("predict_partial")] = 4
        report = ProfileReport({"L1": rec})
        assert macs_skipped(rec) == 54
        assert skip_ratio(rec) == pytest.approx(54 / 90)
        assert path_summary(rec) == "dense:1|sparse:3"
        assert report.phase_totals() == {"predict_partial": 2.0}
        text = report.render()
        assert "0.500" in text  # mean ms of the 4 predict_partial calls
        assert "40.0%" in text  # sensitive ratio
        assert "quantize" not in text  # untimed phases have no row

    def test_unrelated_spans_ignored(self):
        tracer = Tracer(enabled=True)
        with tracer.span("engine.infer", batch=1):
            with tracer.span("odq.run", layer="L1") as sp:
                sp.add("macs_exec", 36)
        report = ProfileReport({}, tracer.spans())
        assert report.layers == {}
        assert "no layer phases" in report.render()
        assert "odq.run" in report.render_flame()

    def test_empty_report_renders_placeholder(self):
        assert "no layer phases" in ProfileReport({}).render()


class TestProfileInference:
    def test_end_to_end_driver(self):
        result = profile_inference("lenet", "odq", images=2, batches=2,
                                   calib_images=8)
        assert result.batches == 2
        assert result.images == 2
        assert result.report.layers  # per-layer rows present
        assert result.infer_seconds > 0
        text = result.render()
        assert "model=lenet" in text
        assert "predict_partial" in text
        rows = _timing_rows(text)
        assert rows == {(n, p): 2 for n in result.records for p in PHASES}
        # Driver restores the tracer's disabled state.
        from repro.obs import trace as trace_mod

        assert not trace_mod.enabled()

"""Session building, threshold resolution, engine cloning."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.colcache import weights_from_gemm_layout
from repro.core.schemes import DEFAULT_SERVE_THRESHOLD, build_scheme, odq_scheme
from repro.quant.bitsplit import split_planes
from repro.quant.uniform import quantize
from repro.serve.config import ServeConfig
from repro.serve.server import InferenceServer
from repro.serve.session import ModelSession


class TestModelSession:
    def test_session_is_ready_to_infer(self, session):
        assert session.engine.calibrated
        assert session.engine.mode == "run"
        out = session.engine.infer(session.sample_inputs[:2])
        assert out.shape == (2, session.num_classes)

    def test_inference_starts_no_gemm_threads(self, session):
        # Every GEMM runs on the calling thread: no intra-op pool exists.
        batch = np.resize(session.sample_inputs, (8, *session.input_shape))
        assert session.engine.infer(batch).shape == (8, session.num_classes)
        names = [t.name for t in threading.enumerate() if t.is_alive()]
        assert not [n for n in names if n.startswith("gemm")], names

    def test_freeze_prepacked_every_quantized_layer(self, session):
        assert session.stats.packed_layers == len(session.engine.executors)
        # ODQ executors carry the pre-packed W_HBS bit plane after freeze.
        for ex in session.engine.executors.values():
            assert ex._packed.wmat_high is not None
            qw = quantize(ex.conv.weight.data, ex.qp_w)
            high = weights_from_gemm_layout(ex._packed.wmat_high, qw.shape)
            assert np.array_equal(high, split_planes(qw, ex.qp_w, ex.low_bits).high)

    def test_served_records_keep_no_masks(self, session):
        batch = np.resize(session.sample_inputs, (8, *session.input_shape))
        session.engine.infer(batch)
        for rec in session.engine.records.values():
            assert rec.last_mask is None
            assert "last_input_mask" not in rec.extra
            assert rec.outputs_total > 0
        conv = next(iter(session.engine.executors.values())).conv
        assert odq_scheme(0.3).make_executor(conv, "C").keep_masks
        for name in ("odq", "drq84", "drq42"):
            assert not build_scheme(name).make_executor(conv, "C").keep_masks

    def test_sample_inputs_do_not_pin_the_test_split(self, session):
        assert session.sample_inputs.base is None
        assert len(session.sample_inputs) == 16

    def test_describe_is_json_safe(self, session):
        import json

        desc = session.describe()
        json.dumps(desc)  # raises if not serializable
        assert desc["model"] == "lenet"
        assert desc["scheme"] == "odq"
        assert tuple(desc["input_shape"]) == session.input_shape

    def test_unset_threshold_resolves_to_serve_default(self, session):
        assert session.config.threshold is None
        assert session.threshold == DEFAULT_SERVE_THRESHOLD
        assert session.describe()["threshold"] == DEFAULT_SERVE_THRESHOLD
        assert session.label() == (
            f"model=lenet scheme=odq threshold={DEFAULT_SERVE_THRESHOLD} "
            "exec_path=auto"
        )

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            ModelSession(ServeConfig(dataset="imagenet"))


class TestEngineCloning:
    def test_clone_is_independent_but_equivalent(self, session):
        clone = session.clone_engine()
        assert clone is not session.engine
        assert clone.calibrated
        x = session.sample_inputs[:2]
        np.testing.assert_allclose(clone.infer(x), session.engine.infer(x))
        # records are confined: running the clone does not touch the original
        clone.reset_records()
        before = {n: r.images for n, r in session.engine.records.items()}
        clone.infer(x)
        after = {n: r.images for n, r in session.engine.records.items()}
        assert before == after

    def test_engines_for_workers_counts(self, session):
        engines = session.engines_for_workers(3)
        assert len(engines) == 3
        assert engines[0] is session.engine
        assert len({id(e) for e in engines}) == 3

    def test_engines_for_workers_rejects_zero(self, session):
        with pytest.raises(ValueError):
            session.engines_for_workers(0)


class TestDriftBaseline:
    @pytest.mark.parametrize("use_plan", [True, False])
    def test_fresh_server_baseline_is_the_warm_up_ratio(self, serve_config, use_plan):
        config = replace(serve_config, use_plan=use_plan)
        server = InferenceServer(config)
        session = server.session
        # Serving counters start at zero: the warm-up ran on scratch records.
        assert all(r.outputs_total == 0 for r in session.engine.records.values())

        engine = session.clone_engine()
        warm = np.resize(session.sample_inputs, (config.max_batch_size, *session.input_shape))
        engine.infer(warm)
        want = {n: r.sensitive_total / r.outputs_total for n, r in engine.records.items()}
        assert set(want) == set(session.engine.executors)
        assert any(want.values())
        assert session.baseline == want
        assert server.drift._baseline == want

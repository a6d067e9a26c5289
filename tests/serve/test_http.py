"""HTTP integration: /healthz, /predict round-trip, /metrics, /stats, and
clean shutdown with no leaked threads — the serving acceptance criteria."""

import json
import threading
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.serve.server import InferenceServer


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        body = resp.read()
        ctype = resp.headers.get("Content-Type", "")
    return json.loads(body) if "json" in ctype else body.decode()


def _post(url: str, payload: dict):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


@pytest.fixture(scope="module")
def server(session, serve_config):
    srv = InferenceServer(serve_config, session=session)
    srv.start()
    yield srv
    srv.shutdown()


class TestEndpoints:
    def test_healthz(self, server):
        health = _get(server.url + "/healthz")
        assert health["status"] == "ok"
        assert health["session"]["model"] == "lenet"
        assert health["session"]["scheme"] == "odq"
        assert health["workers_alive"] == server.config.workers

    def test_predict_single_image_round_trip(self, server):
        img = server.session.sample_inputs[0].tolist()
        resp = _post(server.url + "/predict", {"input": img})
        assert resp["batch"] == 1
        assert len(resp["predictions"]) == 1
        assert 0 <= resp["predictions"][0] < server.session.num_classes
        assert resp["latency_ms"] > 0

    def test_predict_multi_image_and_logits(self, server):
        imgs = server.session.sample_inputs[:3].tolist()
        resp = _post(server.url + "/predict", {"inputs": imgs, "return_logits": True})
        assert resp["batch"] == 3
        assert len(resp["predictions"]) == 3
        logits = np.asarray(resp["logits"])
        assert logits.shape == (3, server.session.num_classes)
        np.testing.assert_array_equal(logits.argmax(axis=1), resp["predictions"])

    def test_predict_matches_direct_engine(self, server):
        x = server.session.sample_inputs[:2]
        resp = _post(server.url + "/predict",
                     {"inputs": x.tolist(), "return_logits": True})
        expected = server.session.engine.infer(x)
        np.testing.assert_allclose(np.asarray(resp["logits"]), expected, rtol=1e-9)

    @pytest.mark.parametrize("key", ["tenant-A", 7, None, {"id": 1}, [1, 2]])
    def test_session_key_is_ignored(self, server, key):
        body = {"input": server.session.sample_inputs[0].tolist(),
                "return_logits": True}
        plain = _post(server.url + "/predict", body)
        keyed = _post(server.url + "/predict", {**body, "session": key})
        assert keyed["logits"] == plain["logits"]

    def test_metrics_exposes_required_series(self, server):
        # ensure at least one request flowed
        _post(server.url + "/predict",
              {"input": server.session.sample_inputs[0].tolist()})
        metrics = _get(server.url + "/metrics")
        assert metrics["counters"]["requests_total"] >= 1
        for hist in ("batch_size", "queue_wait_ms", "infer_ms", "e2e_ms"):
            summary = metrics["histograms"][hist]
            assert summary["count"] >= 1
            assert {"p50", "p95", "p99"} <= set(summary)
        sens = [k for k in metrics["gauges"] if k.startswith("sensitive_ratio:")]
        assert len(sens) == len(server.session.engine.executors)

    def test_stats_is_rendered_text(self, server):
        text = _get(server.url + "/stats")
        assert "requests_total" in text
        assert "worker" in text
        assert "session" in text


class TestErrors:
    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server.url + "/nope")
        assert exc.value.code == 404

    def test_bad_json_400(self, server):
        req = urllib.request.Request(
            server.url + "/predict", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400

    def test_missing_inputs_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(server.url + "/predict", {"wrong": 1})
        assert exc.value.code == 400

    def test_wrong_shape_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(server.url + "/predict", {"input": [[0.0, 1.0], [2.0, 3.0]]})
        assert exc.value.code == 400
        detail = json.loads(exc.value.read())
        assert "shape" in detail["error"]


class TestLifecycle:
    def test_session_from_another_config_is_rejected(self, session, serve_config):
        # A session built with another seed has other weights: serving
        # it under this config would answer for a model nobody asked for.
        with pytest.raises(ValueError, match="session was built from"):
            InferenceServer(replace(serve_config, seed=7), session=session)

    def test_port_zero_binds_real_port(self, session, serve_config):
        with InferenceServer(serve_config, session=session) as srv:
            assert srv.port > 0
            assert _get(srv.url + "/healthz")["status"] == "ok"

    def test_clean_shutdown_no_leaked_threads(self, session, serve_config):
        before = set(threading.enumerate())
        srv = InferenceServer(serve_config, session=session)
        srv.start()
        _post(srv.url + "/predict",
              {"input": srv.session.sample_inputs[0].tolist()})
        srv.shutdown()
        srv.shutdown()  # idempotent
        leaked = [
            t for t in set(threading.enumerate()) - before
            if t.is_alive() and (
                t.name.startswith("serve-worker") or t.name == "serve-http"
            )
        ]
        assert leaked == []

    def test_shutdown_refuses_new_predicts(self, session, serve_config):
        srv = InferenceServer(serve_config, session=session)
        srv.start()
        url = srv.url
        srv.shutdown()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            _post(url + "/predict",
                  {"input": srv.session.sample_inputs[0].tolist()})

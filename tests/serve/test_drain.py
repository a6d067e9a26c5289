"""Graceful-shutdown semantics: 503 while draining, ordered teardown."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.serve.server import InferenceServer


@pytest.fixture(scope="module")
def server(session, serve_config):
    srv = InferenceServer(serve_config, session=session)
    srv.start()
    yield srv
    srv.shutdown()


def _status_and_body(url: str, payload: dict | None = None):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode() if payload is not None else None,
        headers={"Content-Type": "application/json"} if payload else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestDraining:
    @pytest.fixture
    def draining(self, server):
        # Flip the same flag shutdown() flips first, without tearing the
        # pool down, so the refusal path is observable over real HTTP.
        server._draining = True
        yield server
        server._draining = False

    def test_predict_answers_503_before_touching_the_pool(self, draining):
        img = draining.session.sample_inputs[0].tolist()
        status, body = _status_and_body(
            draining.url + "/predict", {"input": img}
        )
        assert status == 503
        assert "draining" in body["error"]

    def test_healthz_reports_draining_with_503(self, draining):
        status, body = _status_and_body(draining.url + "/healthz")
        assert status == 503
        assert body["status"] == "draining"

    def test_serves_again_once_flag_clears(self, server):
        status, body = _status_and_body(server.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"


class TestShutdownOrdering:
    def test_shutdown_flags_draining_and_is_idempotent(
        self, session, serve_config
    ):
        srv = InferenceServer(serve_config, session=session)
        srv.start()
        assert srv.draining is False
        srv.shutdown()
        assert srv.draining is True
        # The socket is gone: a second shutdown must be a clean no-op.
        srv.shutdown()
        with pytest.raises(OSError):
            urllib.request.urlopen(srv.url + "/healthz", timeout=2)

"""/metrics content negotiation: JSON by default, Prometheus on request."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.serve.server import InferenceServer


def _fetch(url: str, accept: str | None = None):
    req = urllib.request.Request(url)
    if accept:
        req.add_header("Accept", accept)
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.headers.get("Content-Type", ""), resp.read().decode()


@pytest.fixture(scope="module")
def server(session, serve_config):
    srv = InferenceServer(serve_config, session=session)
    srv.start()
    # Push one request through so counters are non-trivial.
    payload = json.dumps(
        {"input": srv.session.sample_inputs[0].tolist()}
    ).encode()
    req = urllib.request.Request(
        srv.url + "/predict", data=payload,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30):
        pass
    yield srv
    srv.shutdown()


class TestNegotiation:
    def test_default_is_json(self, server):
        ctype, body = _fetch(server.url + "/metrics")
        assert "json" in ctype
        assert json.loads(body)["counters"]["requests_total"] >= 1

    def test_query_format_prom(self, server):
        ctype, body = _fetch(server.url + "/metrics?format=prom")
        assert ctype.startswith("text/plain")
        assert "# TYPE repro_requests_total counter" in body
        assert "repro_requests_total" in body

    def test_query_format_prometheus_alias(self, server):
        _, body = _fetch(server.url + "/metrics?format=prometheus")
        assert "# TYPE" in body

    def test_accept_text_plain(self, server):
        ctype, body = _fetch(server.url + "/metrics", accept="text/plain")
        assert ctype.startswith("text/plain")
        assert "repro_requests_total" in body

    def test_accept_json_stays_json(self, server):
        ctype, body = _fetch(server.url + "/metrics",
                             accept="application/json")
        assert "json" in ctype
        json.loads(body)

    def test_explicit_json_format_overrides_accept(self, server):
        ctype, body = _fetch(server.url + "/metrics?format=json",
                             accept="text/plain")
        assert "json" in ctype
        json.loads(body)

    def test_prom_body_is_exposition_shaped(self, server):
        _, body = _fetch(server.url + "/metrics?format=prom")
        for line in body.strip().split("\n"):
            assert line.startswith("#") or " " in line

    def test_sensitive_ratio_gauges_labelled(self, server):
        _, body = _fetch(server.url + "/metrics?format=prom")
        assert 'repro_sensitive_ratio{layer="' in body

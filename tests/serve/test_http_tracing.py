"""Thread-path observability over HTTP: one span tree per request, and
the per-layer drift gauges on ``/metrics``."""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from repro.obs import trace
from repro.serve.config import ServeConfig
from repro.serve.server import InferenceServer


@pytest.fixture
def traced():
    """Enable the global tracer for the test, restore and clear after."""
    was = trace.enabled()
    trace.reset()
    trace.enable()
    yield
    if not was:
        trace.disable()
    trace.reset()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


def _post(url: str, payload: dict):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.loads(resp.read())


def _wait_for(predicate, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


class TestServerTelemetryE2E:
    def test_http_requests_trace_and_drift_gauges_flow(self, traced):
        server = InferenceServer(ServeConfig(model="lenet", workers=2, port=0))
        server.start()
        try:
            # Serial requests: each micro-batch carries exactly one
            # request, so its serve.batch has one parent to point at.
            for n in (1, 3, 2):
                imgs = server.session.sample_inputs[:n].tolist()
                assert _post(server.url + "/predict", {"inputs": imgs})["batch"] == n

            layers = set(server.session.engine.records)
            assert layers

            def drift_ready():
                gauges = _get(server.url + "/metrics")["gauges"]
                return all(f"drift_sensitive_ratio:{layer}" in gauges for layer in layers)

            # The worker publishes the gauges just after it answers.
            assert _wait_for(drift_ready), "drift gauges never appeared for all layers"
        finally:
            server.shutdown()

        by_trace: dict[str, list] = {}
        for s in trace.spans():
            if "trace_id" in s.attrs:
                by_trace.setdefault(s.attrs["trace_id"], []).append(s)
        assert len(by_trace) == 3
        for spans in by_trace.values():
            ids = {s.span_id for s in spans}
            roots = [s for s in spans if s.attrs.get("trace_root")]
            assert [r.name for r in roots] == ["serve.predict"]
            (root,) = roots
            # Every other span hangs off a span of the same request:
            # locally on its own thread, or across the HTTP→worker hop.
            for s in spans:
                if s is root:
                    continue
                if s.parent_id is not None:
                    assert s.parent_id in ids, s.name
                else:
                    assert s.attrs["parent_ref"] in {f"main:{i}" for i in ids}, s.name
            (batch,) = [s for s in spans if s.name == "serve.batch"]
            assert batch.parent_id is None
            assert batch.attrs["parent_ref"] == f"main:{root.span_id}"
            assert batch.thread_name.startswith("serve-worker-")
            assert any(s.name == "engine.infer" for s in spans)

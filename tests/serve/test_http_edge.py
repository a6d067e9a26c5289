"""HTTP edge: no fixed wait per response, one write per response, and
refusal of bodies the engine must never see (non-finite pixels, a bad or
oversize ``Content-Length``)."""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time

import numpy as np
import pytest

from repro.serve.http import MAX_BODY_BYTES, ServeRequestHandler
from repro.serve.server import InferenceServer


@pytest.fixture(scope="module")
def server(session, serve_config):
    srv = InferenceServer(serve_config, session=session)
    srv.start()
    yield srv
    srv.shutdown()


def _connect(server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)


def _predict(conn: http.client.HTTPConnection, payload: dict):
    conn.request("POST", "/predict", body=json.dumps(payload).encode(),
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def _raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes; read until the server closes (2 s socket timeout)."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=2) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return data


class TestNoFixedWait:
    def test_keepalive_round_trips_do_not_stall(self, server):
        # A response split over two writes with Nagle on waits out the
        # client's ~40 ms delayed ACK.
        body = {"input": server.session.sample_inputs[0].tolist()}
        conn = _connect(server)
        times = {"healthz": [], "predict": []}
        try:
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("GET", "/healthz")
                conn.getresponse().read()
                times["healthz"].append(time.perf_counter() - t0)
            for _ in range(20):
                t0 = time.perf_counter()
                status, _ = _predict(conn, body)
                times["predict"].append(time.perf_counter() - t0)
                assert status == 200
        finally:
            conn.close()
        for route, samples in times.items():
            assert statistics.median(samples) < 0.020, (route, samples)

    def test_each_response_is_one_sendall(self, server, monkeypatch):
        sends: list[int] = []

        class CountingSocket:
            def __init__(self, sock):
                self._sock = sock

            def sendall(self, data, *args):
                sends.append(len(data))
                return self._sock.sendall(data, *args)

            def __getattr__(self, name):
                return getattr(self._sock, name)

        original_setup = ServeRequestHandler.setup

        def counting_setup(handler):
            handler.request = CountingSocket(handler.request)
            original_setup(handler)

        monkeypatch.setattr(ServeRequestHandler, "setup", counting_setup)
        conn = _connect(server)
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            conn.request("GET", "/stats")
            conn.getresponse().read()
            status, _ = _predict(conn, {"input": server.session.sample_inputs[0].tolist()})
            assert status == 200
            status, _ = _predict(conn, {"wrong": 1})
            assert status == 400
        finally:
            conn.close()
        assert len(sends) == 4, sends


class TestNonFiniteInputs:
    def test_nan_request_refused_without_touching_its_batch_mate(self, server):
        x = server.session.sample_inputs[0]
        conn = _connect(server)
        try:
            status, alone = _predict(conn, {"input": x.tolist(), "return_logits": True})
        finally:
            conn.close()
        assert status == 200

        bad = x.copy()
        bad[0, 0, 0] = np.nan
        payloads = {
            "nan": {"input": bad.tolist()},
            "healthy": {"input": x.tolist(), "return_logits": True},
        }
        results: dict = {}
        barrier = threading.Barrier(len(payloads))

        def send(name):
            conn = _connect(server)
            try:
                barrier.wait()
                results[name] = _predict(conn, payloads[name])
            finally:
                conn.close()

        threads = [threading.Thread(target=send, args=(n,)) for n in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        nan_status, nan_body = results["nan"]
        assert nan_status == 400
        assert "finite" in nan_body["error"]
        healthy_status, healthy = results["healthy"]
        assert healthy_status == 200
        np.testing.assert_array_equal(healthy["logits"], alone["logits"])

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_inf_refused(self, server, value):
        x = server.session.sample_inputs[0].copy()
        x[0, 3, 3] = value
        conn = _connect(server)
        try:
            status, body = _predict(conn, {"input": x.tolist()})
        finally:
            conn.close()
        assert status == 400
        assert "finite" in body["error"]


class TestContentLength:
    @pytest.mark.parametrize("value", ["-1", "abc", "1_0"])
    def test_malformed_length_400_and_close(self, server, value):
        reply = _raw_exchange(
            server,
            f"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {value}\r\n\r\n".encode(),
        )
        head = reply.split(b"\r\n\r\n", 1)[0].decode()
        assert head.startswith("HTTP/1.1 400")
        assert "Connection: close" in head

    def test_oversize_length_413_without_reading(self, server):
        reply = _raw_exchange(
            server,
            f"POST /predict HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
        )
        head = reply.split(b"\r\n\r\n", 1)[0].decode()
        assert head.startswith("HTTP/1.1 413")
        assert "Connection: close" in head


class TestEdgeClock:
    def test_clock_starts_before_the_body_is_read(self, server):
        # The body arrives 100 ms after the headers; both the response's
        # latency_ms and the e2e_ms histogram must include most of that
        # wait (the handler starts only once it has parsed the headers).
        def e2e() -> dict:
            return server.metrics.as_dict()["histograms"].get("e2e_ms", {"count": 0})

        before = e2e()["count"]
        body = json.dumps({"input": server.session.sample_inputs[0].tolist()}).encode()
        head = (
            f"POST /predict HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(head)
            time.sleep(0.1)
            sock.sendall(body)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.startswith(b"HTTP/1.1 200")
        latency_ms = json.loads(rest.split(b"\r\n\r\n", 1)[1])["latency_ms"]
        assert latency_ms >= 50.0
        # Observed just after the response is written, so poll briefly.
        deadline = time.monotonic() + 2.0
        while e2e()["count"] < before + 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert e2e()["count"] == before + 1
        assert e2e()["max"] >= latency_ms

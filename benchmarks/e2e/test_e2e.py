"""Self-tests of the end-to-end benchmark (not part of tier-1).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import analysis
from analysis import TAIL, TooFewSamples, min_samples, percentile, tail
from loadgen import poisson_schedule
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


# -- the Poisson schedule -------------------------------------------------------


def test_poisson_schedule_is_deterministic_per_seed():
    a = poisson_schedule(20.0, 500, seed=7)
    assert np.array_equal(a, poisson_schedule(20.0, 500, seed=7))
    assert not np.array_equal(a, poisson_schedule(20.0, 500, seed=8))
    assert np.all(np.diff(a) > 0) and a[0] > 0


def test_poisson_schedule_rate():
    gaps = np.diff(poisson_schedule(10.0, 20000, seed=1))
    assert gaps.mean() == pytest.approx(0.1, rel=0.03)
    assert gaps.std() == pytest.approx(0.1, rel=0.05)  # exponential: sd == mean


# -- percentiles ------------------------------------------------------------------


def test_p99_refused_below_1000_samples():
    assert min_samples(99) == 1000
    with pytest.raises(TooFewSamples):
        percentile(range(999), 99)
    assert percentile(range(1000), 99) == pytest.approx(989.01)


def test_sample_rule_leaves_ten_beyond():
    for q in (50, 75, 90, 95, 99):
        n = min_samples(q)
        assert n * (100 - q) / 100 >= 10 - 1e-9
        assert (n - 1) * (100 - q) / 100 < 10
    assert min_samples(TAIL) == 100
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 99, TAIL)


def test_reported_tail_is_the_highest_supported():
    assert tail(range(1000))[0] == 99
    assert tail(range(999))[0] == 95
    assert tail(range(199))[0] == 90
    assert tail(range(73))[0] == 80
    assert tail(range(49)) is None


def test_failed_requests_are_infinitely_slow():
    values = [1.0] * 18 + [math.inf] * 2
    assert percentile(values, 50) == 1.0
    assert percentile([1.0] * 10 + [math.inf] * 10, 50) == math.inf


# -- metric names -----------------------------------------------------------------


def test_metric_name_sanitising():
    assert analysis.metric_name("C1:features.layers.0") == "C1_features.layers.0"
    assert analysis.metric_name("::sensitive ratio") == "sensitive_ratio"
    assert analysis.metric_name("http.decode_ms.p50") == "http.decode_ms.p50"
    for bad in ("", ":::", "x" * 65):
        with pytest.raises(ValueError):
            analysis.metric_name(bad)


def test_layer_names_become_indices():
    assert analysis.layer_index("C1:features.layers.0") == 0
    assert analysis.layer_index("C12:layer3.0.conv1") == 11
    assert analysis.layer_metric(7) == "odq.layer07_ms"
    with pytest.raises(ValueError):
        analysis.layer_index("features.layers.0")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert analysis.metric_name(m["name"]) == m["name"]
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


# -- reconciliation ---------------------------------------------------------------


def test_reconcile_arithmetic():
    transport, residual = analysis.reconcile(
        rtt=10.0, dopost=7.0, decode=1.0, queue_wait=2.0, infer=3.0, respond=0.5
    )
    assert transport == pytest.approx(3.0)
    assert residual == pytest.approx(0.5)  # = dopost - (decode + queue + infer + respond)


def _synthetic_trace(n=100):
    """``n`` requests on two connections; each do_POST spends 1 ms decoding,
    2 ms queued, 3 ms inferring, 0.5 ms responding and 0.25 ms unexplained;
    the network adds 4 ms.  One conv layer of 2 ms per image."""
    ms = 1e-3
    client, requests, infer, conv = [], [], [], []
    for i in range(n):
        port, seq = 5000 + i % 2, i // 2
        sent = i * 0.1
        t0 = sent + 2 * ms
        submit = t0 + 1 * ms
        enq = submit + 0.1 * ms
        created = enq + 2 * ms
        i0 = created + 0.1 * ms
        i1 = i0 + 3 * ms
        complete = i1 + 0.05 * ms
        t1 = complete + 0.5 * ms
        done = t1 + 2 * ms
        client.append({"port": port, "seq": seq, "sent": sent, "done": done, "ok": True})
        requests.append({"port": port, "t0": t0, "t1": t1, "submit": submit, "images": 1,
                         "complete": complete, "queue_wait": created - enq, "infer": i1 - i0})
        infer.append((i0, i1, 1))
        conv.append((i0, 0, 2 * ms, 0.5 * ms, 0.25 * ms, 0.25 * ms, 0.5 * ms, 3, 10))
    # Shuffle the server side: matching must go by (port, order), not list order.
    requests.reverse()
    spans = {"requests": requests, "infer": infer, "plan_runs": [],
             "conv": conv, "gemm": [], "census": [], "compiles": [], "gemm_stats": {}}
    return spans, client


def test_traced_metrics_reconcile_synthetic_trace():
    spans, client = _synthetic_trace()
    out = analysis.traced_metrics(spans, client, (0.0, 20.0), 0.0)
    assert out["matched_requests"] == 100
    assert out["http.decode_ms.p50"] == pytest.approx(1.0)
    assert out["batcher.queue_wait_ms.p50"] == pytest.approx(2.0)
    assert out["worker.infer_ms.p50"] == pytest.approx(3.0)
    assert out["http.respond_ms.p50"] == pytest.approx(0.5)
    assert out["http.transport_ms.p50"] == pytest.approx(4.0)
    assert out["residual_ms.p50"] == pytest.approx(0.25)
    assert out["odq.layer00_ms"] == pytest.approx(2.0)
    assert out["odq.self_ms"] == pytest.approx(0.5)
    assert out["odq.sensitive_ratio"] == pytest.approx(0.3)


def test_traced_metrics_window_excludes_setup():
    spans, client = _synthetic_trace()
    out = analysis.traced_metrics(spans, client, (2.0, 20.0), 0.0)
    assert out["odq.layer00_ms"] == pytest.approx(2.0)  # per image: still 2 ms
    assert out["matched_requests"] == 100  # matching is not windowed


# -- compare verdicts -------------------------------------------------------------


def _runs(values):
    return dict(enumerate(values))


def test_verdicts():
    base = _runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    same = _runs([101, 100, 99, 100, 101, 99, 100, 102, 98, 100])
    assert analysis.verdict(base, same, "lower", 0.10) == "within bound"
    slower = _runs([v * 1.3 for v in base.values()])
    assert analysis.verdict(base, slower, "lower", 0.10) == "worse"
    faster = _runs([v * 0.8 for v in base.values()])
    assert analysis.verdict(base, faster, "lower", 0.10) == "better"
    assert analysis.verdict(base, faster, "higher", 0.10) == "worse"
    noisy = _runs([60, 140, 80, 120, 100, 70, 130, 90, 110, 100])
    assert analysis.verdict(base, noisy, "lower", 0.10) == "unresolved"


# -- end to end ---------------------------------------------------------------------


def test_smoke_run(tmp_path):
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in _spec()["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "p80_ms=" in done.stdout and "p90_ms" not in done.stdout  # 50 samples
    assert elapsed < 30.0

"""`repro profile lenet odq --trace-out ...` writes a parsable Chrome trace
and prints the phase report — the observability acceptance criterion."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.obs import log, trace


@pytest.fixture(autouse=True)
def _reset_obs():
    yield
    log.reset()
    trace.disable()
    trace.reset()


def test_profile_writes_parsable_chrome_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    rc = main([
        "profile", "lenet", "odq",
        "--images", "2", "--batches", "1", "--calib-images", "8",
        "--trace-out", str(out),
    ])
    assert rc == 0

    # Report on stdout mentions every ODQ phase plus the MAC census.
    stdout = capsys.readouterr().out
    for needle in ("model=lenet", "scheme=odq", "quantize",
                   "predict_partial", "mask", "full_result", "MACs skipped"):
        assert needle in stdout

    # Trace file is valid Chrome trace-event JSON with engine spans.
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert complete, "no complete events in trace"
    names = {e["name"] for e in complete}
    assert "engine.infer" in names
    assert "odq.run" in names
    # Each ODQ layer call is one odq.run event carrying its phase split.
    runs = [e for e in complete if e["name"] == "odq.run"]
    for e in runs:
        assert e["args"]["path"] in ("dense", "sparse")
        for phase in ("quantize", "predict_partial", "mask", "full_result"):
            assert e["args"][f"{phase}_ns"] > 0
    for e in complete:
        assert e["dur"] >= 0
        assert isinstance(e["ts"], (int, float))


def test_profile_jsonl_format(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    rc = main([
        "profile", "lenet", "odq",
        "--images", "2", "--batches", "1", "--calib-images", "8",
        "--trace-out", str(out), "--trace-format", "jsonl",
    ])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    rows = [json.loads(line) for line in lines]
    assert any(r["name"] == "odq.run" for r in rows)
    assert all({"name", "start_us", "duration_us"} <= set(r) for r in rows)


def test_profile_flame_flag(capsys):
    rc = main([
        "profile", "lenet", "odq",
        "--images", "2", "--batches", "1", "--calib-images", "8",
        "--flame",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "engine.infer" in out
    assert "odq.run" in out

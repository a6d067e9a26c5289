"""`python -m repro serve --model lenet --scheme odq --port 0` end to end.

Starts the real CLI process, discovers the OS-assigned port from its
stdout banner, exercises /healthz and a JSON /predict round-trip, then
interrupts it and verifies a clean exit.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time
import urllib.request

import numpy as np

REPO = pathlib.Path(__file__).resolve().parents[2]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _start_server(*extra_args):
    env = _env()
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--model", "lenet", "--scheme", "odq", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _read_url(proc, timeout=60.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                raise AssertionError(
                    f"server exited early ({proc.returncode}): {proc.stdout.read()}"
                )
            continue
        if "listening on" in line:
            return line.rsplit(" ", 1)[-1].strip()
    raise AssertionError("server never printed its listen URL")


def test_serve_cli_round_trip():
    proc = _start_server("--workers", "1", "--calib-images", "16")
    try:
        url = _read_url(proc)

        with urllib.request.urlopen(url + "/healthz", timeout=10) as resp:
            health = json.loads(resp.read())
        assert health["status"] == "ok"
        assert health["session"]["model"] == "lenet"
        shape = health["session"]["input_shape"]

        img = np.zeros(shape)
        img[:, 4:12, 4:12] = 0.8  # any valid image
        req = urllib.request.Request(
            url + "/predict",
            data=json.dumps({"input": img.tolist()}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            body = json.loads(resp.read())
        assert body["batch"] == 1
        assert len(body["predictions"]) == 1

        proc.send_signal(signal.SIGINT)
        ret = proc.wait(timeout=30)
        assert ret == 0, f"serve exited {ret}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_serve_path_loads_only_the_serving_stack():
    """``repro serve`` imports neither scipy nor the offline drivers."""
    code = (
        "import sys\n"
        "import repro.__main__, repro.serve.server, repro.serve.session\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m.startswith(('repro.analysis', 'repro.accel'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=_env(), timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout

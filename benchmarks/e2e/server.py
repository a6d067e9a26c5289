"""Start, time, probe and stop one ``repro serve`` process; fingerprint the host."""

from __future__ import annotations

import os
import platform
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from loadgen import Connection

perf = time.perf_counter

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

_LISTENING = re.compile(rb"listening on http://127\.0\.0\.1:(\d+)")

#: Seconds allowed for the server to build its session and answer /healthz.
START_TIMEOUT = 120.0


def server_env(scale: str) -> dict[str, str]:
    """This process's environment (BLAS pins included) with only
    ``REPRO_SCALE`` of the ``REPRO_*`` knobs set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_SCALE"] = scale
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Server:
    """One server process, from launch to a drained shutdown.

    The process runs in its own session so that it and any process it
    starts can be waited for (and, if shutdown hangs, killed) as one
    process group.
    """

    def __init__(self, argv: list[str], scale: str, log_path: Path):
        self.argv = argv
        self.scale = scale
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.setup_s = 0.0
        self.ready_at = 0.0  #: ``perf_counter`` when set-up ended

    def start(self, setup_stream) -> "Server":
        """Launch, wait for a 200 on /healthz, then send one serial request
        of each batch size; :attr:`setup_s` times all of it."""
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        t0 = perf()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, *self.argv, "--port", "0"],
                cwd=ROOT, env=server_env(self.scale), stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
        self.port = self._wait_listening(t0)
        conn = Connection(self.port)
        try:
            while conn.request("GET", "/healthz")[0] != 200:
                if perf() - t0 > START_TIMEOUT:
                    raise RuntimeError(f"/healthz never answered 200; see {self.log_path}")
                time.sleep(0.01)
            for body, n in zip(setup_stream.bodies, setup_stream.images):
                if not conn.post(body, n)["ok"]:
                    raise RuntimeError(f"set-up request of {n} images failed; see {self.log_path}")
        finally:
            conn.close()
        self.ready_at = perf()
        self.setup_s = self.ready_at - t0
        return self

    def _wait_listening(self, t0: float) -> int:
        while perf() - t0 < START_TIMEOUT:
            match = _LISTENING.search(self.log_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1)) / 1024.0

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT (the CLI's graceful path), then wait for the whole group
        (the server and anything it started)."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = perf() + timeout
        while _group_alive(pgid):
            if perf() > deadline:
                os.killpg(pgid, signal.SIGKILL)
                deadline = perf() + timeout
            time.sleep(0.02)
        self.proc = None


def _group_alive(pgid: int) -> bool:
    """True while a non-zombie process of group ``pgid`` exists."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def fingerprint(blas_env: dict) -> dict:
    """What a result depends on besides the code: cores, Python, numpy,
    BLAS and the values of the ``blas_env`` thread pins."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        match = re.search(r"^model name\s*:\s*(.+)$", cpuinfo.read_text(), re.M)
        cpu = match.group(1).strip() if match else ""
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": commit,
        "blas_env": {k: os.environ.get(k) for k in blas_env},
    }

"""End-to-end ``/predict`` benchmark of ``repro serve``.

Run one workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload lenet-1img --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload; ``--trace 1`` is the traced run
that reports the per-layer split (an untraced and a traced server, each
running the open loop); ``--smoke`` is a 50-request check of
the whole pipeline.  Compare two directories of run outputs::

    python3 benchmarks/e2e/run.py compare RUNS_A RUNS_B

Each run starts two real ``python -m repro serve`` subprocesses, one
after the other (default config: 2 worker threads, plans on, BLAS pinned
to one thread), and loads each from this one process through 2
keep-alive connections.  Phases:

1. set-up of each server: launch → 200 on ``/healthz`` → one serial
   request of each batch size 1-8; ``setup_s`` is the median of the two;
2. on each server, an untimed warm-up closed loop, so that lazy plan
   compiles in the second worker are done before timing;
3. on the first server, a closed loop on both connections for half of
   ``--seconds``;
4. on the second, an open loop of Poisson arrivals at the workload's rate
   for the other half; each request is timed from when it was due;
5. on the second, a correctness probe: 16 serial requests of 1-8 images
   whose logits must equal (``==``) a reference session built in this
   process.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any output was wrong or any
request failed, 2 on a usage or environment error.  See README.md.
"""

from __future__ import annotations

import os
import sys

#: BLAS/OpenMP pools pinned to one thread, here and in the servers (which
#: inherit the environment).  Set before anything imports numpy.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import analysis  # noqa: E402
from analysis import percentile, tail  # noqa: E402
from loadgen import (  # noqa: E402
    HEADERS,
    Connection,
    closed_loop,
    latencies_ms,
    open_loop,
    poisson_schedule,
)
from server import HERE, ROOT, Server, fingerprint  # noqa: E402
from workloads import WORKLOADS, make_traffic  # noqa: E402

#: Share of ``--seconds`` given to the closed loop; the open loop gets the rest.
CLOSED_SHARE = 0.5
#: Seconds of untimed closed loop on each server before its timed phase.
WARMUP_S = 2.0
#: Closed-loop bodies generated per second of closed loop, per rps of the
#: workload's open-loop rate (the closed-loop capacity is two to three
#: times that rate, so the stream is not used up unless throughput triples).
CLOSED_HEADROOM = 8
#: How the untraced servers are started.
SERVE = ["-m", "repro", "serve"]
#: Worker threads of the serve default.
WORKERS = 2
#: A run is invalid when the generator sent its requests later than this.
MAX_LAG_MS = 5.0
#: Client threads, one keep-alive connection each: one per usable core.
CONNECTIONS = 2


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _reference(workload):
    """The correctness oracle: a session built here from the same config.

    It runs the unplanned path with plain ``a @ b`` GEMMs: one GEMM
    thread, and the pool's auto-tuning (seconds of probing that would
    route nothing on one thread) skipped by fixing the tuning.  Planned
    execution and every pool route are bit-identical to that path, so
    these choices change time, not the expected logits.
    """
    os.environ["REPRO_SCALE"] = workload.scale
    from repro.core import gemm
    from repro.serve.config import ServeConfig
    from repro.serve.session import ModelSession

    gemm.configure(threads=1, min_flops=math.inf, min_block_mnk=gemm.MIN_BLOCK_MNK_FLOOR)
    return ModelSession(
        ServeConfig(**workload.serve, port=0, gemm_threads=1, use_plan=False)
    )


def probe(port: int, stream, session) -> tuple[int, list[dict]]:
    """Serial ``return_logits`` requests compared ``==`` with the reference.

    The reference logits are computed while the server works on the
    same request.
    """
    import numpy as np

    samples = []
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for body in stream.bodies:
            got = None
            try:
                conn.request("POST", "/predict", body=body, headers=HEADERS)
                want = session.engine.infer(
                    np.asarray(json.loads(body)["inputs"], dtype=np.float64)
                )
                resp = conn.getresponse()
                payload = resp.read()
                if resp.status == 200:
                    got = np.asarray(json.loads(payload)["logits"])
            except (OSError, http.client.HTTPException, ValueError, KeyError):
                conn.close()
            ok = got is not None and got.shape == want.shape and np.array_equal(got, want)
            samples.append({"ok": ok})
    finally:
        conn.close()
    return sum(1 for s in samples if not s["ok"]), samples


class Run:
    """One benchmark run of one workload; servers are stopped on any exit."""

    def __init__(self, workload, seed: int, seconds: float, out: Path, smoke: bool):
        self.w = workload
        self.seed = seed
        self.out = out
        self.warmup_s = 0.5 if smoke else WARMUP_S
        self.closed_s = 1.0 if smoke else seconds * CLOSED_SHARE
        open_count = 50 if smoke else round(workload.rate * (seconds - self.closed_s))
        warm_n, closed_n = (
            math.ceil(CLOSED_HEADROOM * workload.rate * s) for s in (self.warmup_s, self.closed_s)
        )
        self.traffic = make_traffic(workload, seed, warm_n, closed_n, open_count)
        self.offsets = poisson_schedule(workload.rate, open_count, seed)
        self.servers: list[Server] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0

    def launch(self, argv: list[str], tag: str) -> Server:
        """Start a server (set-up is timed), then warm it up untimed."""
        log = self.out / "logs" / f"{self.w.name}-s{self.seed}-{tag}.log"
        srv = Server(argv + self.w.server_args(), self.w.scale, log)
        self.servers.append(srv)
        srv.start(self.traffic["setup"])
        self.setups.append(srv.setup_s)
        self.attempted += len(self.traffic["setup"])
        warm, _ = self.on_connections(srv, closed_loop, self.traffic["warmup"], self.warmup_s)
        self.count(warm)
        return srv

    def stop(self, srv: Server) -> None:
        self.servers.remove(srv)
        srv.stop()

    def stop_all(self) -> None:
        while self.servers:
            self.servers.pop().stop()

    def count(self, samples: list[dict]) -> None:
        self.attempted += len(samples)
        self.failed += sum(1 for s in samples if not s["ok"])

    def on_connections(self, srv: Server, loop, *args):
        """Run ``loop(connections, *args)`` on fresh keep-alive connections."""
        conns = [Connection(srv.port) for _ in range(CONNECTIONS)]
        try:
            return loop(conns, *args)
        finally:
            for c in conns:
                c.close()

    def open_phase(self, srv: Server) -> tuple[list[dict], float]:
        samples = self.on_connections(srv, open_loop, self.traffic["open"], self.offsets)
        self.count(samples)
        wall = max(s["done"] for s in samples) - min(s["due"] for s in samples)
        return samples, wall

    def scrape(self, srv: Server) -> dict:
        conn = Connection(srv.port)
        try:
            return conn.get_json("/metrics")
        finally:
            conn.close()

    def correctness(self, srv: Server) -> int:
        mismatches, samples = probe(srv.port, self.traffic["probe"], _reference(self.w))
        self.count(samples)
        return mismatches

    def open_server(self) -> tuple[list[dict], dict, int, float]:
        """A server that runs the open loop between two ``/metrics`` scrapes,
        then the correctness probe.  Returns the open-loop samples, the
        scraped layer counts, the probe's mismatches and the peak RSS."""
        srv = self.launch(SERVE, "open")
        m0 = self.scrape(srv)
        opened, wall = self.open_phase(srv)
        m1 = self.scrape(srv)
        mismatches = self.correctness(srv)
        rss = srv.peak_rss_mb()
        self.stop(srv)
        return opened, analysis.scrape_metrics(m0, m1, wall, WORKERS), mismatches, rss

    # -- the two kinds of run ------------------------------------------------

    def untraced(self) -> dict:
        srv = self.launch(SERVE, "closed")
        closed, elapsed = self.on_connections(
            srv, closed_loop, self.traffic["closed"], self.closed_s
        )
        self.count(closed)
        rss = srv.peak_rss_mb()
        self.stop(srv)
        opened, counts, mismatches, rss_open = self.open_server()

        lat = latencies_ms(opened)
        metrics = {
            "setup_s": statistics.median(self.setups),
            "throughput_rps": sum(1 for s in closed if s["ok"]) / elapsed,
            "p50_ms": percentile(lat, 50),
            "peak_rss_mb": max(rss, rss_open),
        }
        if (reported := tail(lat)) is not None:
            metrics[f"p{reported[0]}_ms"] = reported[1]
        return {
            "metrics": metrics,
            "open_latency_ms": [round(v, 3) for v in sorted(lat)],
            "setups_s": self.setups,
            "closed_requests": len(closed),
            "closed_distinct": len(closed) <= len(self.traffic["closed"]),
            "open_requests": len(opened),
            "lag_ms": tail([s["lag"] * 1000.0 for s in opened]),
            "layer_counts": counts,
            "mismatches": mismatches,
        }

    def traced(self) -> dict:
        plain, counts, mismatches, _ = self.open_server()

        trace_dir = self.out / "traces" / f"{self.w.name}-s{self.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        spans_path = trace_dir / "spans.json"
        launcher = [str(HERE / "launcher.py"), "--spans", str(spans_path), "--", "serve"]
        tsrv = self.launch(launcher, "traced")
        traced, _ = self.open_phase(tsrv)
        self.stop(tsrv)

        spans = json.loads(spans_path.read_text())
        window = (min(s["sent"] for s in traced), max(s["done"] for s in traced))
        layer = analysis.traced_metrics(spans, traced, window, tsrv.ready_at)
        layer.update(counts)
        p50_plain = percentile(latencies_ms(plain), 50)
        p50_traced = percentile(latencies_ms(traced), 50)
        layer["trace_overhead"] = p50_traced / p50_plain - 1.0
        rtt = [(s["done"] - s["sent"]) * 1000.0 for s in traced if s["ok"]]
        layer["client_rtt_ms.p50"] = percentile(rtt, 50)
        return {
            "metrics": layer,
            "layer_names": spans["layer_names"],
            "open_requests": len(plain) + len(traced),
            "lag_ms": tail([s["lag"] * 1000.0 for s in plain + traced]),
            "mismatches": mismatches,
        }


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: int, out: Path,
            smoke: bool) -> bool:
    w = WORKLOADS[name]
    print(f"== e2e · workload={name} seed={seed} seconds={seconds:g} trace={trace}"
          f"{' smoke' if smoke else ''}", flush=True)
    host = fingerprint(BLAS_ENV)
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()), flush=True)
    run = Run(w, seed, seconds, out, smoke)
    try:
        result = run.traced() if trace else run.untraced()
    finally:
        run.stop_all()

    lag = result["lag_ms"]  # (q, p<q>) or None
    valid = None if lag is None else lag[1] <= MAX_LAG_MS
    correct = result["mismatches"] == 0 and run.failed == 0
    metrics = {}
    for m in spec["per_layer"] if trace else spec["end_to_end"]:
        value = result["metrics"].get(m["name"])
        if value is None and re.fullmatch(r"odq\.layer\d\d_ms", m["name"]):
            value = 0.0  # the model has fewer conv layers
        elif value is None:
            raise KeyError(f"run produced no value for metric {m['name']!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {value:.6g} {m['unit']}")
    extra = {k: v for k, v in result["metrics"].items() if k not in metrics}
    print("  also: " + " ".join(f"{k}={v:.6g}" for k, v in sorted(extra.items())))
    if trace:
        names = " ".join(f"{int(k):02d}={v}" for k, v in result["layer_names"].items())
        print(f"  layers: {names}")
        share = abs(result["metrics"]["residual_ms.p50"]) / result["metrics"]["client_rtt_ms.p50"]
        print(f"  reconciliation: |residual p50| = {share:.1%} of the client p50 round trip"
              f" ({'within' if share <= 0.10 else 'OVER'} the 10% target)")
    else:
        print(f"  setups: {' '.join(f'{s:.3f}' for s in result['setups_s'])} s;"
              f" closed loop {result['closed_requests']} requests in {run.closed_s:g} s"
              f" (distinct bodies: {result['closed_distinct']});"
              f" open loop {result['open_requests']} requests at {w.rate:g} rps")
        print("  layer counts (/metrics over the open loop): " + " ".join(
            f"{k}={v:.4g}" for k, v in result["layer_counts"].items()))
    error_rate = run.failed / run.attempted
    print(f"  error_rate {error_rate:.6g} ({run.failed} of {run.attempted} requests)")
    if lag is None:
        print("  loadgen.lag_ms: too few samples to judge")
    else:
        verdict = "valid" if valid else f"INVALID run: generator lag over {MAX_LAG_MS:g} ms"
        print(f"  loadgen.lag_ms.p{lag[0]} {lag[1]:.4g} ms ({verdict})")
    print(f"  correctness: {len(run.traffic['probe']) - result['mismatches']}"
          f"/{len(run.traffic['probe'])} probe responses == reference logits", flush=True)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "host": host, "valid": valid, "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "error_rate": error_rate,
        **{k: v for k, v in result.items() if k != "metrics"},
        "metrics": result["metrics"],
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}-s{seed}-t{trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)
    return correct


def compare(dir_a: Path, dir_b: Path, spec: dict) -> int:
    """Median, quartiles and verdict per (workload, end-to-end metric)."""
    sides, hosts = [], []
    for d in (dir_a, dir_b):
        runs: dict[str, list[dict]] = {}
        for path in sorted(d.glob("*.json")):
            r = json.loads(path.read_text())
            if r.get("trace") == 0 and not r.get("smoke"):
                runs.setdefault(r["workload"], []).append(r)
        sides.append(runs)
        hosts.append({
            json.dumps({k: v for k, v in r["host"].items() if k != "commit"}, sort_keys=True)
            for rs in runs.values() for r in rs
        })
        bad = sum(1 for rs in runs.values() for r in rs if r["valid"] is False)
        print(f"{d}: {sum(map(len, runs.values()))} runs, {bad} invalid (left out),"
              f" {len(hosts[-1])} host fingerprint(s)")
    if hosts[0] != hosts[1]:
        print("note: host fingerprints differ between the two sides (reported, not compared)")
    worse = 0
    head = f"{'workload':<17} {'metric':<15} {'A median [q1, q3]':<30} {'B median [q1, q3]':<30}"
    print(head + f" {'delta':>8} {'spread A/B':>13} {'bound':>6}  verdict")
    for wname in WORKLOADS:
        a_runs = [r for r in sides[0].get(wname, []) if r["valid"] is not False]
        b_runs = [r for r in sides[1].get(wname, []) if r["valid"] is not False]
        if not a_runs or not b_runs:
            print(f"{wname:<17} (no valid runs on {'A' if not a_runs else 'B'})")
            continue
        for m in spec["end_to_end"]:
            a = {r["seed"]: r["metrics"][m["name"]] for r in a_runs}
            b = {r["seed"]: r["metrics"][m["name"]] for r in b_runs}
            qa, qb = analysis.quartiles(a.values()), analysis.quartiles(b.values())
            v = analysis.verdict(a, b, m["better"], m["bound"])
            worse += v == "worse"
            cell = "{1:.4g} [{0:.4g}, {2:.4g}]"
            print(f"{wname:<17} {m['name']:<15} {cell.format(*qa):<30} {cell.format(*qb):<30}"
                  f" {qb[1] / qa[1] - 1:>+8.1%}"
                  f" {analysis.spread(a.values()):>6.1%}/{analysis.spread(b.values()):<6.1%}"
                  f" {m['bound']:>6.0%}  {v}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare", description=compare.__doc__)
        p.add_argument("runs_a", type=Path)
        p.add_argument("runs_b", type=Path)
        args = p.parse_args(argv[1:])
        return compare(args.runs_a, args.runs_b, spec)

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="lenet-1img, 0.5 s warm-ups, 1 s closed loop, 50 open-loop requests")
    p.add_argument("--out", type=Path, default=HERE / "runs",
                   help="directory for run outputs (default: benchmarks/e2e/runs)")
    args = p.parse_args(argv)
    if args.smoke and args.workload == "all":
        args.workload = "lenet-1img"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok &= run_one(spec, name, args.seed, args.seconds, args.trace, args.out, args.smoke)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Traced server launcher: ``repro serve`` with every serving layer timed.

Usage (run by ``run.py --trace 1``; the arguments after ``--`` are a
normal ``python -m repro`` command line)::

    python benchmarks/e2e/launcher.py --spans OUT.json -- serve --model lenet

The launcher wraps the public functions of each layer at class or module
level, from outside, before handing control to the repro CLI.  Nothing in
``src/`` is edited and ``repro.obs`` tracing stays off, so the serving
code runs its normal (planned, untraced) path.  Instance attributes are
never patched, so compiled plans stay valid.  Spans are kept in memory
as plain tuples and written to ``--spans`` when the server shuts down.
The thread-pool backend is timed; ``--replicas`` is not.

All times are ``time.perf_counter()``, which reads ``CLOCK_MONOTONIC`` on
Linux, so they compare across the client and server processes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
import time

from analysis import layer_index

perf = time.perf_counter
_tl = threading.local()

#: In-memory span store.  Appends to a list are atomic under the GIL.
SPANS: dict[str, list] = {
    "requests": [],   # one dict per do_POST
    "infer": [],      # (t0, t1, images) per QuantizedInferenceEngine.infer
    "plan_runs": [],  # (t0, seconds, seconds in conv steps) per InferencePlan.run
    "conv": [],       # (t0, layer, seconds, prep, predict, mask, full, d_sensitive, d_outputs)
    "gemm": [],       # (t0, seconds) per outermost GEMM call
    "census": [],     # (t0, seconds) per worker census (densities + exec census + drift)
    "compiles": [],   # t0 per compile_plan
}
LAYER_NAMES: dict[int, str] = {}


# -- wrappers ---------------------------------------------------------------


def _wrap(owner, name: str, make) -> None:
    original = getattr(owner, name)
    setattr(owner, name, functools.wraps(original)(make(original)))


def _wrap_property(cls, name: str, make) -> None:
    prop = cls.__dict__[name]
    setattr(cls, name, property(make(prop.fget)))


def _phase(key: str):
    """Add the call's duration to the running conv step's ``key`` phase."""

    def make(fn):
        def wrapper(*args, **kwargs):
            acc = getattr(_tl, "conv", None)
            if acc is None:
                return fn(*args, **kwargs)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[key] += perf() - t0

        return wrapper

    return make


def _gemm(b_index: int):
    """Time outermost GEMM calls; inside a conv step, attribute the call
    to ``predict`` or ``full`` by the identity of its B operand."""

    def make(fn):
        def wrapper(*args, **kwargs):
            if getattr(_tl, "in_gemm", False):
                return fn(*args, **kwargs)
            _tl.in_gemm = True
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                _tl.in_gemm = False
                SPANS["gemm"].append((t0, dt))
                acc = getattr(_tl, "conv", None)
                if acc is not None and acc["packed"] is not None:
                    b = args[b_index] if len(args) > b_index else kwargs.get("b")
                    if b is acc["packed"].wmat_high:
                        acc["predict"] += dt
                    elif b is acc["packed"].wmat_full:
                        acc["full"] += dt

        return wrapper

    return make


def _conv_step_run(fn):
    def wrapper(self, x):
        rec = self.ex.record
        s0, o0 = rec.sensitive_total, rec.outputs_total
        acc = {
            "prep": 0.0, "predict": 0.0, "mask": 0.0, "full": 0.0,
            "packed": getattr(self, "packed", None),
        }
        outer = getattr(_tl, "conv", None)
        _tl.conv = acc
        t0 = perf()
        try:
            return fn(self, x)
        finally:
            dt = perf() - t0
            _tl.conv = outer
            name = self.ex.info.name
            index = layer_index(name)
            LAYER_NAMES.setdefault(index, name)
            rec = self.ex.record
            SPANS["conv"].append((
                t0, index, dt, acc["prep"], acc["predict"], acc["mask"],
                acc["full"], rec.sensitive_total - s0, rec.outputs_total - o0,
            ))
            if getattr(_tl, "plan_conv", None) is not None:
                _tl.plan_conv += dt

    return wrapper


def _plan_run(fn):
    def wrapper(self, x):
        _tl.plan_conv = 0.0
        t0 = perf()
        try:
            return fn(self, x)
        finally:
            SPANS["plan_runs"].append((t0, perf() - t0, _tl.plan_conv))
            _tl.plan_conv = None

    return wrapper


def _engine_infer(fn):
    def wrapper(self, x):
        t0 = perf()
        try:
            return fn(self, x)
        finally:
            t1 = perf()
            _tl.last_infer = (t0, t1)
            SPANS["infer"].append((t0, t1, int(len(x))))

    return wrapper


def _compile_plan(fn):
    def wrapper(*args, **kwargs):
        SPANS["compiles"].append(perf())
        return fn(*args, **kwargs)

    return wrapper


def _census_part(last: bool):
    """Sum the three per-batch census calls of one worker thread; the
    drift observation is the last of them and closes the batch."""

    def make(fn):
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                acc = getattr(_tl, "census", None)
                if not last:
                    _tl.census = (t0, dt) if acc is None else (acc[0], acc[1] + dt)
                elif acc is not None:
                    SPANS["census"].append((acc[0], acc[1] + dt))
                    _tl.census = None

        return wrapper

    return make


def _batch_complete(fn):
    def wrapper(self, outputs):
        t = perf()
        t0, t1 = getattr(_tl, "last_infer", (t, t))  # this worker's engine call
        for r in self.requests:
            r.future.e2e_complete = (t, self.created_at - r.enqueued_at, t1 - t0)
        return fn(self, outputs)

    return wrapper


def _server_submit(fn):
    def wrapper(self, arr, *args, **kwargs):
        t = perf()
        fut = fn(self, arr, *args, **kwargs)
        req = getattr(_tl, "req", None)
        if req is not None:
            req["submit"] = t
            req["future"] = fut
        return fut

    return wrapper


def _do_post(fn):
    def wrapper(self):
        req = {"port": self.client_address[1], "t0": perf()}
        _tl.req = req
        try:
            return fn(self)
        finally:
            req["t1"] = perf()
            _tl.req = None
            fut = req.pop("future", None)
            done = getattr(fut, "e2e_complete", None)
            if done is not None:
                req["complete"], req["queue_wait"], req["infer"] = done
            SPANS["requests"].append(req)

    return wrapper


def install() -> None:
    """Wrap every timed layer of the serving process (class/module level)."""
    from repro.core import base, gemm, odq, plan
    from repro.core.colcache import ColumnCache
    from repro.core.pipeline import QuantizedInferenceEngine
    from repro.obs.drift import DriftMonitor
    from repro.serve.batcher import MicroBatch
    from repro.serve.http import ServeRequestHandler
    from repro.serve.server import InferenceServer
    from repro.serve.worker import WorkerPool

    _wrap(ServeRequestHandler, "do_POST", _do_post)
    _wrap(InferenceServer, "submit", _server_submit)
    _wrap(MicroBatch, "complete", _batch_complete)
    _wrap(WorkerPool, "layer_densities", _census_part(last=False))
    _wrap(WorkerPool, "exec_census", _census_part(last=False))
    _wrap(DriftMonitor, "observe", _census_part(last=True))
    _wrap(QuantizedInferenceEngine, "infer", _engine_infer)
    _wrap(plan.InferencePlan, "run", _plan_run)
    _wrap(plan.PlannedConvStep, "run", _conv_step_run)
    _wrap(plan, "compile_plan", _compile_plan)
    _wrap(plan, "mask_from_magnitude", _phase("mask"))
    _wrap(ColumnCache, "__init__", _phase("prep"))
    _wrap(ColumnCache, "full_rows", _phase("full"))
    _wrap_property(ColumnCache, "cols_high", _phase("prep"))
    _wrap_property(ColumnCache, "cols", _phase("full"))
    _wrap(gemm.GemmDispatch, "run", _gemm(b_index=2))
    _wrap(gemm.DispatchGroup, "gemm", _gemm(b_index=2))
    original = gemm.pgemm
    _wrap(gemm, "pgemm", _gemm(b_index=1))
    for module in (base, odq):  # these bound pgemm by name at import
        if module.pgemm is original:
            module.pgemm = gemm.pgemm


def dump(path: str) -> None:
    from repro.core import gemm

    payload = {
        **SPANS,
        "layer_names": {str(k): v for k, v in sorted(LAYER_NAMES.items())},
        "gemm_stats": gemm.stats().as_dict(),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("repro_args", nargs=argparse.REMAINDER,
                        help="-- followed by a python -m repro command line")
    args = parser.parse_args(argv)
    repro_args = args.repro_args[1:] if args.repro_args[:1] == ["--"] else args.repro_args
    install()
    from repro.__main__ import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())

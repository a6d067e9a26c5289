"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``info``
    Print package version, experiment scale, and paper constants.
``table1`` / ``table2``
    Print the analytic accelerator tables (instant, no training).
``simulate <dump.npz>``
    Run a saved mask dump (see ``repro.accel.dump``) through the four
    Table-2 accelerator models and print normalized time/energy.
``profile <model> <scheme>``
    Per-layer, per-phase profile of quantized inference (predict vs
    full-result time, MACs computed vs skipped); ``--trace-out`` writes
    a Chrome/JSONL trace.
``quickstart``
    Run the end-to-end quickstart (train, ODQ-retrain, quantize, simulate).
``serve``
    Start the batched quantized-inference HTTP server (``repro.serve``).
``check``
    Run the project-invariant static analyzer (``repro.checks``) over
    the source tree; see ``docs/static-analysis.md``.

Global observability flags (valid before or after the command name):
``--trace`` (enable the span tracer), ``--trace-out PATH`` (write the
collected trace; format from ``--trace-format``), ``--log-level`` and
``--log-json`` (structured logging).  Environment equivalents:
``REPRO_TRACE``, ``REPRO_LOG_LEVEL``, ``REPRO_LOG_JSON``.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs import log as obslog
from repro.obs import trace
from repro.obs.log import console


def _cmd_info(_args) -> int:
    import repro
    from repro.config import PAPER_THRESHOLDS, scale_from_env

    console(f"repro {repro.__version__} — ODQ (ICPP 2023) reproduction")
    console(f"experiment scale: {scale_from_env()}")
    console(f"paper thresholds (Table 3): {PAPER_THRESHOLDS}")
    return 0


def _cmd_table1(_args) -> int:
    from repro.analysis.performance import render_table1

    console(render_table1())
    return 0


def _cmd_table2(_args) -> int:
    from repro.analysis.performance import render_table2

    console(render_table2())
    return 0


def _cmd_simulate(args) -> int:
    from repro.accel.dump import load_workloads
    from repro.accel.simulator import build_accelerator
    from repro.utils.report import ascii_table

    workloads = load_workloads(args.dump)
    console(f"loaded {len(workloads)} layer workloads from {args.dump}")
    sims = {name: build_accelerator(name).simulate(workloads)
            for name in ("INT16", "INT8", "DRQ", "ODQ")}
    ref = sims["INT16"]
    rows = [
        [
            name,
            f"{sim.total_cycles:,.0f}",
            f"{sim.normalized_time(ref):.4f}",
            f"{sim.normalized_energy(ref):.4f}",
        ]
        for name, sim in sims.items()
    ]
    console(ascii_table(["accelerator", "cycles", "norm. time", "norm. energy"], rows))
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import profile_inference

    result = profile_inference(
        model=args.model,
        scheme=args.scheme,
        threshold=args.threshold,
        dataset=args.dataset,
        images=args.images,
        batches=args.batches,
        calib_images=args.calib_images,
        train_epochs=args.train_epochs,
        exec_path=args.exec_path,
        use_plan=not args.no_plan,
    )
    console(result.render())
    if args.flame:
        console("")
        console(result.report.render_flame())
    # Stash the spans so the shared --trace-out epilogue exports exactly
    # this run (the profiler resets the global tracer around its run).
    args._profile_spans = result.spans
    return 0


def _cmd_plan(args) -> int:
    """Build a session, compile its serving plan, and print the steps."""
    from repro.serve.config import ServeConfig
    from repro.serve.session import ModelSession
    from repro.utils.report import ascii_table

    config = ServeConfig(
        model=args.model,
        scheme=args.scheme,
        threshold=args.threshold,
        dataset=args.dataset,
        train_epochs=args.train_epochs,
        calib_images=args.calib_images,
        exec_path=args.exec_path,
        max_batch_size=args.batch_size,
    )
    session = ModelSession(config)
    stats = session.engine.plan_stats()
    console(
        f"repro plan — {session.label()} batch={config.max_batch_size}"
    )
    for plan in session.engine._plans.values():
        d = plan.describe()
        shape = "x".join(str(v) for v in d["input_shape"])
        console(
            f"\nplan input={shape} dtype={d['input_dtype']} "
            f"fast_convs={d['fast_conv_steps']}/{d['conv_steps']} "
            f"sparse_batched={d['sparse_batched_layers']}"
        )
        rows = []
        for i, step in enumerate(d["step_list"]):
            detail = ", ".join(
                f"{k}={v}" for k, v in step.items()
                if k != "kind" and v is not None
            )
            rows.append([i, step["kind"], detail])
        console(ascii_table(["#", "step", "detail"], rows))
    console(
        f"\ncache: {stats['cached']}/{stats['limit']} plans "
        f"(compiles={stats['compiles']} hits={stats['hits']} "
        f"invalidated={stats['invalidated']} evictions={stats['evictions']})"
    )
    return 0


def _cmd_quickstart(_args) -> int:
    import pathlib
    import runpy

    script = pathlib.Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    if script.exists():
        runpy.run_path(str(script), run_name="__main__")
        return 0
    console("examples/quickstart.py not found (installed without the repo checkout)")
    return 1


def _serve_config_from_args(args) -> "ServeConfig":  # noqa: F821 — lazy import
    from repro.serve.config import ServeConfig

    return ServeConfig(
        model=args.model,
        scheme=args.scheme,
        threshold=args.threshold,
        dataset=args.dataset,
        train_epochs=args.train_epochs,
        calib_images=args.calib_images,
        exec_path=args.exec_path,
        use_plan=not args.no_plan,
        max_batch_size=args.max_batch_size,
        workers=args.workers,
        host=args.host,
        port=args.port,
        drift_band=args.drift_band,
    )


def _add_serve_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="lenet", help="model registry name")
    parser.add_argument("--scheme", default="odq", help="quantization scheme name")
    parser.add_argument("--threshold", type=float, default=None,
                        help="sensitivity threshold for odq/drq schemes")
    parser.add_argument("--dataset", default="mnist",
                        help="synthetic dataset (mnist|cifar10|cifar100)")
    parser.add_argument("--train-epochs", type=int, default=0,
                        help="warm-up training epochs at session build (0 = none)")
    parser.add_argument("--calib-images", type=int, default=64,
                        help="calibration images per session")
    parser.add_argument("--exec-path", choices=["auto", "dense", "sparse"],
                        default="auto",
                        help="ODQ result-generation path (auto picks per "
                             "layer call from the sensitive-row fraction)")
    parser.add_argument("--max-batch-size", type=int, default=8,
                        help="micro-batch coalescing cap (images)")
    parser.add_argument("--workers", type=int, default=2,
                        help="engine worker threads (keep at or below the "
                             "usable cores)")
    parser.add_argument("--no-plan", action="store_true",
                        help="disable compiled inference plans "
                             "(repro.core.plan); run the legacy per-call "
                             "path — speed knob only, results identical")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321,
                        help="bind port (0 = OS-assigned)")
    parser.add_argument("--drift-band", type=float, default=0.15,
                        help="sensitivity-drift alert band: warn when a "
                             "layer's EWMA sensitive-ratio departs its "
                             "warm-up baseline by more than this")


#: glibc's ``mallopt`` parameter number for ``M_ARENA_MAX`` (malloc.h).
_M_ARENA_MAX = -8


def _one_malloc_arena() -> None:
    """Make every thread of this process allocate from glibc's main arena.

    glibc gives each thread that contends for ``malloc`` an arena of its
    own, and the serving threads' NumPy temporaries then fragment one
    arena each: a 2-worker resnet20 server's peak RSS read anywhere from
    134 to 168 MB as unrelated code changed the heap layout, against
    110 MB with one arena.  NumPy allocates its arrays while holding the
    GIL, so one arena costs no parallelism.  A no-op where the C library
    has no ``mallopt``.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_ARENA_MAX, 1)


def _cmd_serve(args) -> int:
    from repro.serve.server import InferenceServer

    _one_malloc_arena()
    server = InferenceServer(_serve_config_from_args(args), verbose=args.verbose)
    server.start()
    console(f"repro.serve listening on {server.url}")
    console(f"session: {server.session.describe()}")
    console("endpoints: POST /predict · GET /healthz /metrics /stats  (Ctrl-C stops)")
    try:
        server.wait()
    except KeyboardInterrupt:
        console("\nshutting down …")
    finally:
        server.shutdown()
    return 0


def _cmd_check(args) -> int:
    from repro.checks.cli import run_check

    return run_check(args)


def _global_options() -> argparse.ArgumentParser:
    """Observability flags shared by the root parser and every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    # default=SUPPRESS throughout: the subcommand parser (same parent)
    # parses into a fresh namespace whose values are copied over the
    # root's, so a plain default would silently clobber flags given
    # *before* the subcommand (`repro --trace serve ...`).  With
    # SUPPRESS, an unseen flag sets nothing and the root's value
    # survives; consumers read these via getattr with fallbacks.
    group.add_argument("--trace", action="store_true",
                       default=argparse.SUPPRESS,
                       help="enable the span tracer (REPRO_TRACE=1)")
    group.add_argument("--trace-out", default=argparse.SUPPRESS,
                       metavar="PATH",
                       help="write the collected trace to PATH (implies --trace)")
    group.add_argument("--trace-format", choices=["chrome", "jsonl"],
                       default=argparse.SUPPRESS,
                       help="trace file format: chrome://tracing JSON or JSONL")
    group.add_argument("--log-level", default=argparse.SUPPRESS,
                       choices=["debug", "info", "warning", "error"],
                       help="structured log threshold (REPRO_LOG_LEVEL)")
    group.add_argument("--log-json", action="store_true",
                       default=argparse.SUPPRESS,
                       help="emit JSON-lines logs (REPRO_LOG_JSON=1)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The CLI schema (exposed for the dispatch-table tests)."""
    global_opts = _global_options()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ODQ (ICPP 2023) reproduction toolkit",
        parents=[global_opts],
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="package and experiment-scale info",
                   parents=[global_opts])
    sub.add_parser("table1", help="print Table 1 (PE allocation frontier)",
                   parents=[global_opts])
    sub.add_parser("table2", help="print Table 2 (accelerator configs)",
                   parents=[global_opts])
    p_sim = sub.add_parser("simulate", help="simulate a saved mask dump",
                           parents=[global_opts])
    p_sim.add_argument("dump", help="path to a .npz mask dump")
    sub.add_parser("quickstart", help="run the end-to-end quickstart example",
                   parents=[global_opts])

    p_prof = sub.add_parser(
        "profile",
        help="per-layer per-phase profile of quantized inference",
        parents=[global_opts],
    )
    p_prof.add_argument("model", help="model registry name (e.g. lenet, resnet8)")
    p_prof.add_argument("scheme", help="quantization scheme (e.g. odq, int8)")
    p_prof.add_argument("--threshold", type=float, default=None,
                        help="sensitivity threshold for odq/drq schemes")
    p_prof.add_argument("--dataset", default="mnist",
                        help="synthetic dataset (mnist|cifar10|cifar100)")
    p_prof.add_argument("--images", type=int, default=8,
                        help="images per profiled batch")
    p_prof.add_argument("--batches", type=int, default=1,
                        help="number of inference batches to profile")
    p_prof.add_argument("--calib-images", type=int, default=32,
                        help="calibration images for the session build")
    p_prof.add_argument("--train-epochs", type=int, default=0,
                        help="warm-up training epochs before profiling")
    p_prof.add_argument("--exec-path", choices=["auto", "dense", "sparse"],
                        default="auto",
                        help="ODQ result-generation path (auto|dense|sparse)")
    p_prof.add_argument("--no-plan", action="store_true",
                        help="profile the legacy per-call path instead of "
                             "the compiled inference plan")
    p_prof.add_argument("--flame", action="store_true",
                        help="also print the aggregated ASCII call tree")

    p_plan = sub.add_parser(
        "plan",
        help="compile and print the shape-specialized inference plan",
        parents=[global_opts],
    )
    p_plan.add_argument("model", help="model registry name (e.g. lenet, resnet20)")
    p_plan.add_argument("scheme", help="quantization scheme (e.g. odq, int8)")
    p_plan.add_argument("--threshold", type=float, default=None,
                        help="sensitivity threshold for odq/drq schemes")
    p_plan.add_argument("--dataset", default="mnist",
                        help="synthetic dataset (mnist|cifar10|cifar100)")
    p_plan.add_argument("--calib-images", type=int, default=32,
                        help="calibration images for the session build")
    p_plan.add_argument("--train-epochs", type=int, default=0,
                        help="warm-up training epochs before planning")
    p_plan.add_argument("--exec-path", choices=["auto", "dense", "sparse"],
                        default="auto",
                        help="ODQ result-generation path frozen into the plan")
    p_plan.add_argument("--batch-size", type=int, default=8,
                        help="batch shape the plan specializes on")

    p_serve = sub.add_parser("serve", help="start the batched inference HTTP server",
                             parents=[global_opts])
    _add_serve_options(p_serve)
    p_serve.add_argument("--verbose", action="store_true",
                         help="log each HTTP request")

    from repro.checks.cli import add_check_arguments

    p_check = sub.add_parser(
        "check", help="project-invariant static analyzer (repro.checks)",
        parents=[global_opts],
    )
    add_check_arguments(p_check)
    return parser


#: Command → handler dispatch table (tested in tests/test_cli.py).
HANDLERS = {
    "info": _cmd_info,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "simulate": _cmd_simulate,
    "profile": _cmd_profile,
    "plan": _cmd_plan,
    "quickstart": _cmd_quickstart,
    "serve": _cmd_serve,
    "check": _cmd_check,
}


def _configure_observability(args) -> None:
    """Apply the global --trace/--log-* flags before dispatch."""
    if getattr(args, "log_level", None):
        obslog.configure(level=args.log_level)
    if getattr(args, "log_json", False):
        obslog.configure(json_mode=True)
    if getattr(args, "trace", False) or getattr(args, "trace_out", None):
        trace.enable()


def _write_trace(args) -> None:
    """Shared --trace-out epilogue: export whatever the tracer collected."""
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return
    from repro.obs import exporters

    spans = getattr(args, "_profile_spans", None)
    if spans is None:
        spans = trace.spans()
    if getattr(args, "trace_format", "chrome") == "jsonl":
        path = exporters.write_jsonl(spans, trace_out)
    else:
        path = exporters.write_chrome_trace(spans, trace_out)
    console(f"[trace: {len(spans)} spans written to {path}]", err=True)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        # No command: print usage and exit 2 (matching argparse's own
        # behaviour for unknown commands) instead of tracebacking.
        parser.print_usage(sys.stderr)
        console(f"{parser.prog}: error: a command is required "
                f"(one of: {', '.join(HANDLERS)})", err=True)
        return 2
    handler = HANDLERS.get(args.command)
    if handler is None:  # defensive: subparser without a handler entry
        parser.print_usage(sys.stderr)
        console(f"{parser.prog}: error: unhandled command {args.command!r}",
                err=True)
        return 2
    _configure_observability(args)
    rc = handler(args)
    _write_trace(args)
    return rc


if __name__ == "__main__":
    sys.exit(main())

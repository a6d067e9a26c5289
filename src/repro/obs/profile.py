"""Phase-level profiling of the quantized-inference pipeline.

Turns the engine's per-layer :class:`~repro.core.base.LayerRecord`
census into the paper-style accounting the motivation study needs at
runtime:

* per layer × phase (``quantize``, ``predict_partial``, ``mask``,
  ``full_result``) calls and wall-clock totals, which the executors
  record on every call, tracing on or off;
* MACs computed (predictor INT2 + executor INT4) vs. MACs *skipped*
  (the dense-INT4 work ODQ's insensitive outputs avoided);
* per-layer sensitive ratio (the knob Figs. 9-11 sweep);
* per-layer result-generation path (``dense`` vs ``sparse``, see
  :mod:`repro.core.odq`) and the *effective speedup* the chosen path
  delivered — the measured phase times re-priced at the dense path's
  FLOP count, reconciling ``macs_skipped`` against wall-clock reality.

:func:`profile_inference` is the driver behind ``repro profile``: it
builds a model session, streams a few batches through the engine with
the tracer on, and returns a :class:`ProfileResult` whose
``report.render()`` is the terminal artefact and whose ``spans`` feed
the flame view and the JSONL / Chrome exporters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.base import FULL_RESULT, PHASES, LayerRecord
from repro.obs.trace import SpanRecord
from repro.obs.exporters import ascii_rollup
from repro.utils.report import ascii_table, format_percent


def macs_skipped(rec: LayerRecord) -> int:
    """Dense-INT4 MACs the layer's insensitive outputs did not run."""
    return (rec.outputs_total - rec.sensitive_total) * rec.info.macs_per_output


def skip_ratio(rec: LayerRecord) -> float:
    """Skipped share of the layer's dense-INT4 result-generation MACs."""
    skipped = macs_skipped(rec)
    dense = rec.macs.get("exec_int4", 0) + skipped
    return skipped / dense if dense else 0.0


def path_summary(rec: LayerRecord) -> str:
    """Human-readable dispatch census: ``dense``, ``sparse``, or a mix."""
    if not rec.path_calls:
        return "-"
    if len(rec.path_calls) == 1:
        return next(iter(rec.path_calls))
    return "|".join(f"{p}:{n}" for p, n in sorted(rec.path_calls.items()))


def effective_speedup(rec: LayerRecord) -> float | None:
    """Measured end-to-end speedup the chosen path delivered.

    Re-prices the measured ``full_result`` phase time at the dense
    path's FLOP count and compares against the layer's actual total:

    ``(other_phases + full * flops_dense / flops_actual) / total``

    This reconciles the *theoretical* ``macs_skipped`` census with
    wall-clock reality — gather/scatter overhead and the sparse
    GEMM's doubled operand width both show up here, so the column
    reads below the skip ratio at high density and near ``1.00x``
    for the dense path.  ``None`` when the layer never timed a
    full-result phase (or it spent zero FLOPs).
    """
    total = sum(rec.phase_ns)
    full = rec.phase_ns[FULL_RESULT]
    if full <= 0 or rec.flops_full <= 0 or rec.flops_full_dense <= 0:
        return None
    dense_full = full * rec.flops_full_dense / rec.flops_full
    return (total - full + dense_full) / total


class ProfileReport:
    """Per-layer, per-phase rollup of the engine's layer records.

    ``spans`` (optional) are kept only for :meth:`render_flame`; every
    number in :meth:`render` comes from the records.
    """

    def __init__(self, records: Mapping[str, LayerRecord],
                 spans: Sequence[SpanRecord] = ()):
        self.layers: "OrderedDict[str, LayerRecord]" = OrderedDict(records)
        self.spans = list(spans)

    @property
    def total_ms(self) -> float:
        return sum(sum(rec.phase_ns) for rec in self.layers.values()) / 1e6

    def phase_totals(self) -> "OrderedDict[str, float]":
        """Network-wide total milliseconds per phase (timed phases only)."""
        totals = (
            (phase, sum(rec.phase_ns[i] for rec in self.layers.values()) / 1e6)
            for i, phase in enumerate(PHASES)
        )
        return OrderedDict((p, t) for p, t in totals if t > 0.0)

    def render(self, title: str = "per-layer phase profile") -> str:
        """The terminal artefact: phase-timing + MAC tables + phase split."""
        grand = self.total_ms or 1.0
        timing_rows = [
            [
                name,
                phase,
                calls,
                f"{rec.phase_ns[i] / 1e6:.3f}",
                f"{rec.phase_ns[i] / 1e6 / calls:.3f}",
                format_percent(rec.phase_ns[i] / 1e6 / grand),
            ]
            for name, rec in self.layers.items()
            for i, (phase, calls) in enumerate(zip(PHASES, rec.phase_calls))
            if calls
        ]
        parts = []
        if timing_rows:
            parts.append(ascii_table(
                ["layer", "phase", "calls", "total ms", "mean ms", "share"],
                timing_rows,
                title=title,
            ))
        mac_rows = [
            [
                name,
                format_percent(rec.sensitive_fraction),
                f"{rec.macs.get('pred_int2', 0):,}",
                f"{rec.macs.get('exec_int4', 0):,}",
                f"{macs_skipped(rec):,}",
                format_percent(skip_ratio(rec)),
            ]
            for name, rec in self.layers.items()
            if "pred_int2" in rec.macs  # ODQ layers: the others skip nothing
        ]
        if mac_rows:
            parts.append(ascii_table(
                ["layer", "sensitive", "MACs pred(INT2)", "MACs exec(INT4)",
                 "MACs skipped", "skip ratio"],
                mac_rows,
                title="MAC census (computed vs skipped)",
            ))
        path_rows = []
        for name, rec in self.layers.items():
            if not rec.path_calls:
                continue
            speedup = effective_speedup(rec)
            flop_share = (
                format_percent(rec.flops_full / rec.flops_full_dense)
                if rec.flops_full_dense
                else "-"
            )
            path_rows.append([
                name,
                path_summary(rec),
                f"{rec.rows_computed:,}/{rec.rows_total:,}",
                flop_share,
                "-" if speedup is None else f"{speedup:.2f}x",
            ])
        if path_rows:
            parts.append(ascii_table(
                ["layer", "path", "rows computed", "full-result FLOPs",
                 "effective speedup"],
                path_rows,
                title="result generation (dense vs sparse dispatch)",
            ))
        totals = self.phase_totals()
        if totals:
            rows = [[p, f"{t:.3f}", format_percent(t / grand)] for p, t in totals.items()]
            parts.append(ascii_table(["phase", "total ms", "share"], rows,
                                     title="phase split (predict vs full-result)"))
        return "\n\n".join(parts) if parts else "(no layer phases captured)"

    def render_flame(self) -> str:
        """Aggregated ASCII call tree of the underlying spans."""
        return ascii_rollup(self.spans)


@dataclass
class ProfileResult:
    """Output of :func:`profile_inference`."""

    report: ProfileReport
    spans: list[SpanRecord]
    records: "OrderedDict"
    session: dict
    images: int
    batches: int
    infer_seconds: float
    plan: dict = field(default_factory=dict)

    def render_plan(self) -> str:
        """Compiled-plan table: conv steps and specialization traffic."""
        plan = self.plan
        if not plan:
            return ""
        head = (
            f"plans: enabled={plan.get('enabled')} "
            f"cached={plan.get('cached')}/{plan.get('limit')} "
            f"compiles={plan.get('compiles')} hits={plan.get('hits')} "
            f"invalidated={plan.get('invalidated')} "
            f"evictions={plan.get('evictions')}"
        )
        rows = [
            [
                "x".join(str(d) for d in p.get("input_shape", [])),
                f"{p.get('fast_conv_steps', 0)}/{p.get('conv_steps', 0)}",
                p.get("sparse_batched_layers", 0),
                p.get("executions", 0),
            ]
            for p in plan.get("plans", [])
        ]
        if not rows:
            return head
        table = ascii_table(
            ["input", "fast convs", "sparse-batched", "runs"],
            rows,
            title="compiled inference plans (repro.core.plan)",
        )
        return head + "\n\n" + table

    def render(self) -> str:
        head = (
            f"repro profile — model={self.session.get('model')} "
            f"scheme={self.session.get('scheme')} "
            f"threshold={self.session.get('threshold')} "
            f"images={self.images} batches={self.batches} "
            f"infer={self.infer_seconds * 1000.0:.1f}ms"
        )
        parts = [head, self.report.render()]
        plan_part = self.render_plan()
        if plan_part:
            parts.append(plan_part)
        return "\n\n".join(parts)


def profile_inference(
    model: str,
    scheme: str,
    threshold: float | None = None,
    dataset: str = "mnist",
    images: int = 8,
    batches: int = 1,
    calib_images: int = 32,
    train_epochs: int = 0,
    exec_path: str = "auto",
    use_plan: bool = True,
    tracer=None,
) -> ProfileResult:
    """Build a session, trace ``batches`` inference batches, report.

    Reuses :class:`~repro.serve.session.ModelSession` so the profiled
    pipeline is byte-identical to what serving runs.  The report reads
    the engine's layer records, reset after the session build, so it
    covers exactly the measured ``infer`` calls; the tracer is on around
    those calls only to feed the flame view and trace export.

    With ``use_plan`` (the default) the compiled-plan table is appended
    to the report, and the phase times are those of the planned conv
    steps that serve (they run the executor's own kernel).
    ``use_plan=False`` (``--no-plan``) profiles the legacy per-call path.
    """
    import time as _time

    import numpy as np

    from repro.obs import trace as trace_mod
    from repro.serve.config import ServeConfig
    from repro.serve.session import ModelSession

    tracer = tracer or trace_mod.get_tracer()
    config = ServeConfig(
        model=model,
        scheme=scheme,
        threshold=threshold,
        dataset=dataset,
        train_epochs=train_epochs,
        calib_images=calib_images,
        exec_path=exec_path,
        use_plan=use_plan,
    )
    session = ModelSession(config)
    engine = session.engine
    engine.reset_records()

    rng = np.random.default_rng(config.seed)
    sample = session.sample_inputs
    if len(sample) < images:
        reps = -(-images // len(sample))
        sample = np.concatenate([sample] * reps)[:images]
    else:
        sample = sample[:images]
    noise = rng.normal(0.0, 1e-3, size=(batches,) + sample.shape)

    with tracer.collect(reset=True):
        t0 = _time.perf_counter()
        for b in range(batches):
            engine.infer(sample + noise[b])
        infer_seconds = _time.perf_counter() - t0
        spans = tracer.spans()

    records = engine.records
    report = ProfileReport(records, spans)
    return ProfileResult(
        report=report,
        spans=spans,
        records=records,
        session=session.describe(),
        images=int(sample.shape[0]),
        batches=batches,
        infer_seconds=infer_seconds,
        plan={"warmed": session.stats.plan_warmed, **engine.plan_stats()},
    )


__all__ = [
    "PHASES",
    "ProfileReport",
    "ProfileResult",
    "profile_inference",
]

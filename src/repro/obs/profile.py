"""Phase-level profiling of the quantized-inference pipeline.

Turns a span trace (see :mod:`repro.obs.trace`) plus the engine's
per-layer :class:`~repro.core.base.LayerRecord` statistics into the
paper-style accounting the motivation study needs at runtime:

* per layer × phase (``quantize``, ``predict_partial``, ``mask``,
  ``full_result``) wall-clock totals and per-call distributions;
* MACs computed (predictor INT2 + executor INT4) vs. MACs *skipped*
  (the dense-INT4 work ODQ's insensitive outputs avoided);
* per-layer sensitive ratio (the knob Figs. 9-11 sweep);
* per-layer result-generation path (``dense`` vs ``sparse``, see
  :mod:`repro.core.odq`) and the *effective speedup* the chosen path
  delivered — the measured phase times re-priced at the dense path's
  FLOP count, reconciling ``macs_skipped`` against wall-clock reality.

:func:`profile_inference` is the driver behind ``repro profile``: it
builds a model session, enables the tracer, streams a few batches
through the engine, and returns a :class:`ProfileResult` whose
``report.render()`` is the terminal artefact and whose ``spans`` feed
the JSONL / Chrome exporters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.hist import Histogram
from repro.obs.trace import SpanRecord
from repro.obs.exporters import ascii_rollup
from repro.utils.report import ascii_table, format_percent

#: Executor phases reported per layer, in pipeline order.
PHASES = ("quantize", "predict_partial", "mask", "full_result")


@dataclass
class PhaseStat:
    """Aggregated timing of one (layer, phase) cell."""

    layer: str
    phase: str
    calls: int = 0
    total_us: float = 0.0
    hist: Histogram = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.hist is None:
            self.hist = Histogram(f"{self.layer}.{self.phase}_ms", reservoir=1024)

    def add(self, duration_us: float) -> None:
        self.calls += 1
        self.total_us += duration_us
        self.hist.observe(duration_us / 1000.0)

    @property
    def total_ms(self) -> float:
        return self.total_us / 1000.0

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.calls if self.calls else 0.0


@dataclass
class LayerProfile:
    """Everything the report knows about one conv layer."""

    name: str
    phases: "OrderedDict[str, PhaseStat]" = field(default_factory=OrderedDict)
    macs_pred: int = 0
    macs_exec: int = 0
    macs_skipped: int = 0
    outputs: int = 0
    sensitive: int = 0
    #: Result-generation dispatch census (``{"dense": n, "sparse": m}``).
    path_calls: dict = field(default_factory=dict)
    rows: int = 0            #: spatial output rows seen by full_result
    rows_computed: int = 0   #: rows the chosen path actually computed
    flops_full: int = 0          #: full-result GEMM FLOPs actually spent
    flops_full_dense: int = 0    #: FLOPs the dense path would have spent

    def phase(self, phase: str) -> PhaseStat:
        stat = self.phases.get(phase)
        if stat is None:
            stat = self.phases[phase] = PhaseStat(self.name, phase)
        return stat

    @property
    def total_ms(self) -> float:
        return sum(p.total_ms for p in self.phases.values())

    @property
    def sensitive_ratio(self) -> float:
        return self.sensitive / self.outputs if self.outputs else 0.0

    @property
    def macs_computed(self) -> int:
        return self.macs_pred + self.macs_exec

    @property
    def skip_ratio(self) -> float:
        dense = self.macs_exec + self.macs_skipped
        return self.macs_skipped / dense if dense else 0.0

    @property
    def exec_path_summary(self) -> str:
        """Human-readable dispatch census: ``dense``, ``sparse``, or a mix."""
        if not self.path_calls:
            return "-"
        if len(self.path_calls) == 1:
            return next(iter(self.path_calls))
        return "|".join(
            f"{p}:{n}" for p, n in sorted(self.path_calls.items())
        )

    @property
    def effective_speedup(self) -> float | None:
        """Measured end-to-end speedup the chosen path delivered.

        Re-prices the measured ``full_result`` phase time at the dense
        path's FLOP count and compares against the layer's actual total:

        ``(other_phases_ms + full_ms * flops_dense / flops_actual)
        / total_ms``

        This reconciles the *theoretical* ``macs_skipped`` census with
        wall-clock reality — gather/scatter overhead and the sparse
        GEMM's doubled operand width both show up here, so the column
        reads below the skip ratio at high density and near ``1.00x``
        for the dense path.  ``None`` when the layer never ran the
        instrumented full-result phase (or it spent zero FLOPs).
        """
        full = self.phases.get("full_result")
        if (
            full is None
            or full.total_ms <= 0.0
            or self.total_ms <= 0.0
            or self.flops_full <= 0
            or self.flops_full_dense <= 0
        ):
            return None
        dense_full_ms = full.total_ms * (self.flops_full_dense / self.flops_full)
        other_ms = self.total_ms - full.total_ms
        return (other_ms + dense_full_ms) / self.total_ms


class ProfileReport:
    """Per-layer, per-phase rollup of one traced inference run."""

    def __init__(self):
        self.layers: "OrderedDict[str, LayerProfile]" = OrderedDict()
        self.spans: list[SpanRecord] = []

    # -- construction --------------------------------------------------------

    @classmethod
    def from_spans(cls, spans: Sequence[SpanRecord], records=None) -> "ProfileReport":
        """Build the report from finished spans (+ optional engine records).

        Phase timing comes from ``odq.<phase>`` spans carrying a ``layer``
        attribute (any executor emitting that shape participates — the
        static/DRQ executors emit ``quantize``/``full_result`` only).
        MAC and sensitivity accounting comes from the span counters and,
        when given, the engine's ``records`` mapping overrides them with
        the exact census.
        """
        report = cls()
        report.spans = list(spans)
        for s in report.spans:
            layer_name = s.attrs.get("layer")
            if layer_name is None:
                continue
            prefix, _, phase = s.name.rpartition(".")
            if prefix not in ("odq", "static", "drq"):
                continue
            layer = report._layer(layer_name)
            if phase in PHASES:
                layer.phase(phase).add(s.duration_us)
            if phase == "full_result":
                path = s.attrs.get("path")
                if path is not None:
                    layer.path_calls[path] = layer.path_calls.get(path, 0) + 1
                if s.counters:
                    layer.rows += int(s.counters.get("rows", 0))
                    layer.rows_computed += int(s.counters.get("rows_computed", 0))
                    layer.flops_full += int(s.counters.get("flops_full", 0))
                    layer.flops_full_dense += int(
                        s.counters.get("flops_full_dense", 0)
                    )
            if s.counters:
                layer.macs_pred += int(s.counters.get("macs_pred", 0))
                layer.macs_exec += int(s.counters.get("macs_exec", 0))
                layer.macs_skipped += int(s.counters.get("macs_skipped", 0))
                layer.outputs += int(s.counters.get("outputs", 0))
                layer.sensitive += int(s.counters.get("sensitive", 0))
        if records is not None:
            report._merge_records(records)
        return report

    def _layer(self, name: str) -> LayerProfile:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = LayerProfile(name)
        return layer

    def _merge_records(self, records) -> None:
        """Overwrite MAC/sensitivity tallies with the engine's exact census."""
        for name, rec in records.items():
            layer = self._layer(name)
            layer.macs_pred = int(rec.macs.get("pred_int2", 0))
            layer.macs_exec = int(rec.macs.get("exec_int4", 0))
            layer.outputs = int(rec.outputs_total)
            layer.sensitive = int(rec.sensitive_total)
            insensitive = rec.outputs_total - rec.sensitive_total
            layer.macs_skipped = int(insensitive * rec.info.macs_per_output)
            extra = getattr(rec, "extra", None) or {}
            if "exec_path_calls" in extra:
                layer.path_calls = dict(extra["exec_path_calls"])
                layer.rows = int(extra.get("exec_rows_total", layer.rows))
                layer.rows_computed = int(
                    extra.get("exec_rows_computed", layer.rows_computed)
                )
                layer.flops_full = int(
                    extra.get("exec_flops_full", layer.flops_full)
                )
                layer.flops_full_dense = int(
                    extra.get("exec_flops_full_dense", layer.flops_full_dense)
                )

    # -- rendering -----------------------------------------------------------

    @property
    def total_ms(self) -> float:
        return sum(l.total_ms for l in self.layers.values())

    def phase_totals(self) -> "OrderedDict[str, float]":
        """Network-wide total milliseconds per phase."""
        totals: "OrderedDict[str, float]" = OrderedDict((p, 0.0) for p in PHASES)
        for layer in self.layers.values():
            for phase, stat in layer.phases.items():
                totals[phase] = totals.get(phase, 0.0) + stat.total_ms
        return OrderedDict((p, t) for p, t in totals.items() if t > 0.0)

    def render(self, title: str = "per-layer phase profile") -> str:
        """The terminal artefact: phase-timing + MAC tables + phase split."""
        grand = self.total_ms or 1.0
        timing_rows = []
        for layer in self.layers.values():
            for phase in PHASES:
                stat = layer.phases.get(phase)
                if stat is None:
                    continue
                timing_rows.append([
                    layer.name,
                    phase,
                    stat.calls,
                    f"{stat.total_ms:.3f}",
                    f"{stat.mean_ms:.3f}",
                    f"{stat.hist.percentile(95):.3f}",
                    format_percent(stat.total_ms / grand),
                ])
        parts = []
        if timing_rows:
            parts.append(ascii_table(
                ["layer", "phase", "calls", "total ms", "mean ms", "p95 ms", "share"],
                timing_rows,
                title=title,
            ))
        mac_rows = [
            [
                layer.name,
                format_percent(layer.sensitive_ratio),
                f"{layer.macs_pred:,}",
                f"{layer.macs_exec:,}",
                f"{layer.macs_skipped:,}",
                format_percent(layer.skip_ratio),
            ]
            for layer in self.layers.values()
            if layer.outputs or layer.macs_computed
        ]
        if mac_rows:
            parts.append(ascii_table(
                ["layer", "sensitive", "MACs pred(INT2)", "MACs exec(INT4)",
                 "MACs skipped", "skip ratio"],
                mac_rows,
                title="MAC census (computed vs skipped)",
            ))
        path_rows = []
        for layer in self.layers.values():
            if not layer.path_calls:
                continue
            speedup = layer.effective_speedup
            flop_share = (
                format_percent(layer.flops_full / layer.flops_full_dense)
                if layer.flops_full_dense
                else "-"
            )
            path_rows.append([
                layer.name,
                layer.exec_path_summary,
                f"{layer.rows_computed:,}/{layer.rows:,}",
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
        """Compiled-plan table: steps and specialization traffic."""
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
                p.get("mode", "?"),
                p.get("steps", 0),
                f"{p.get('fast_conv_steps', 0)}/{p.get('conv_steps', 0)}",
                p.get("sparse_batched_layers", 0),
                p.get("executions", 0),
            ]
            for p in plan.get("plans", [])
        ]
        if not rows:
            return head
        table = ascii_table(
            ["input", "mode", "steps", "fast convs", "sparse-batched", "runs"],
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
    pipeline is byte-identical to what serving runs.  The tracer is
    enabled only around the measured ``infer`` calls — session build and
    calibration are traced too (they appear in the flame view) but the
    per-phase report counts only ``run``-mode spans because calibration
    executes the FP reference path, not the ODQ phases.

    With ``use_plan`` (the default) the compiled-plan table is appended
    to the report, and the per-phase spans time the planned conv steps
    that serve (they run the executor's own kernel).
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
    report = ProfileReport.from_spans(spans, records)
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
    "PhaseStat",
    "LayerProfile",
    "ProfileReport",
    "ProfileResult",
    "profile_inference",
]

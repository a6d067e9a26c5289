"""Cycle-approximate network simulation on the Table-2 accelerators.

This is the reproduction of the paper's evaluation simulator
(Section 5.2): per-layer mask dumps from the quantization core are turned
into :class:`LayerWorkload` descriptions, and each accelerator model turns
a workload into cycles (roofline of compute and DRAM traffic) and an
energy breakdown (cores / buffer / DRAM / static).

Accelerator models:

* ``INT16``  — 120 native INT16 PEs, 1 cycle per MAC;
* ``INT8``   — 1692 INT4 multi-precision PEs, 4 cycles per INT8 MAC;
* ``DRQ``    — same fabric; sensitive-input MACs at hi precision
  (4 cycles), insensitive at 1 cycle;
* ``ODQ``    — 4860 INT2 PEs in 27 arrays; the predictor/executor
  pipeline with Table-1 allocation (static or dynamic) and the Fig.-16
  executor workload scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ACCEL_DRQ, ACCEL_INT8, ACCEL_INT16, ACCEL_ODQ, EXECUTOR_MAC_CYCLES, PES_PER_ARRAY, PREDICTOR_MAC_CYCLES, AcceleratorSpec
from repro.accel.alloc import (
    IdleStats,
    PEAllocation,
    choose_allocation,
    idle_fractions,
)
from repro.accel.energy import (
    DEFAULT_ENERGY,
    EnergyBreakdown,
    EnergyModel,
    mac_energy_pj,
)
from repro.accel.memory import (
    DEFAULT_MEMORY,
    MemoryConfig,
    conv_layer_traffic,
    memory_cycles,
)
from repro.accel.pe import bitfusion_mac_cycles
from repro.accel.schedule import odq_dynamic_schedule, static_schedule
from repro.core.base import LayerRecord
from repro.obs import trace
from repro.obs.log import get_logger

_log = get_logger("repro.accel.simulator")


@dataclass
class LayerWorkload:
    """Accelerator-facing description of one conv layer's inference work."""

    name: str
    in_channels: int
    out_channels: int
    kernel: int
    out_h: int
    out_w: int
    images: int
    macs: dict[str, int]
    sensitive_fraction: float = 0.0
    per_channel_sensitive: np.ndarray | None = None
    input_sensitive_fraction: float = 0.0
    #: Result-generation census recorded by the software executor (its
    #: ``LayerRecord`` fields): output rows seen vs rows the dispatched
    #: path actually computed, and the MACs of the gathered-row
    #: full-result GEMM.  ``0`` means "census not recorded" (old dumps,
    #: non-ODQ schemes) and preserves the channel-granular accounting.
    exec_rows_total: int = 0
    exec_rows_computed: int = 0
    exec_flops_full: int = 0

    @property
    def macs_per_output(self) -> int:
        return self.kernel * self.kernel * self.in_channels

    @property
    def total_outputs(self) -> int:
        return self.images * self.out_h * self.out_w * self.out_channels

    @property
    def total_macs(self) -> int:
        return self.total_outputs * self.macs_per_output

    @classmethod
    def from_record(cls, rec: LayerRecord) -> "LayerWorkload":
        return cls(
            name=rec.info.name,
            in_channels=rec.info.in_channels,
            out_channels=rec.info.out_channels,
            kernel=rec.info.kernel_size,
            out_h=rec.out_h,
            out_w=rec.out_w,
            images=rec.images,
            macs=dict(rec.macs),
            sensitive_fraction=rec.sensitive_fraction,
            per_channel_sensitive=rec.per_channel_sensitive,
            input_sensitive_fraction=(
                rec.input_sensitive_total / rec.input_total if rec.input_total else 0.0
            ),
            exec_rows_total=rec.rows_total,
            exec_rows_computed=rec.rows_computed,
            exec_flops_full=rec.flops_full,
        )


@dataclass
class LayerSimResult:
    """Cycles and energy for one layer on one accelerator."""

    name: str
    compute_cycles: float
    memory_cycles: float
    energy: EnergyBreakdown
    allocation: PEAllocation | None = None
    idle: IdleStats | None = None
    scheduler_idle_fraction: float = 0.0

    @property
    def cycles(self) -> float:
        return max(self.compute_cycles, self.memory_cycles)


@dataclass
class SimResult:
    """Whole-network simulation outcome."""

    accelerator: str
    layers: list[LayerSimResult] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return sum(l.cycles for l in self.layers)

    @property
    def total_energy(self) -> EnergyBreakdown:
        total = EnergyBreakdown()
        for l in self.layers:
            total = total + l.energy
        return total

    def normalized_time(self, reference: "SimResult") -> float:
        return self.total_cycles / reference.total_cycles

    def normalized_energy(self, reference: "SimResult") -> float:
        return self.total_energy.total_pj / reference.total_energy.total_pj


class AcceleratorModel:
    """Base accelerator: subclass provides compute cycles + operand widths."""

    spec: AcceleratorSpec

    def __init__(
        self,
        mem: MemoryConfig = DEFAULT_MEMORY,
        energy: EnergyModel = DEFAULT_ENERGY,
    ):
        self.mem = mem
        self.energy = energy

    # subclass hooks ------------------------------------------------------

    def compute_cycles(self, wl: LayerWorkload) -> float:  # pragma: no cover
        raise NotImplementedError

    def operand_bits(self, wl: LayerWorkload) -> tuple[float, float]:
        """Effective (weight_bits, act_bits) for traffic/energy accounting."""
        raise NotImplementedError  # pragma: no cover

    def mac_class_bits(self) -> dict[str, int] | None:
        return None

    #: MAC-census classes this accelerator executes; others in a workload's
    #: ``macs`` dict (e.g. when one synthetic workload carries every
    #: scheme's counts) are ignored.
    mac_classes: frozenset[str] = frozenset()

    def _own_macs(self, wl: LayerWorkload) -> dict[str, int]:
        if not self.mac_classes:
            return wl.macs
        return {k: v for k, v in wl.macs.items() if k in self.mac_classes}

    def reuse(self, wl: LayerWorkload) -> float:
        return self.mem.dense_reuse

    # shared machinery ------------------------------------------------------

    def simulate_layer(self, wl: LayerWorkload) -> LayerSimResult:
        compute = self.compute_cycles(wl)
        w_bits, a_bits = self.operand_bits(wl)
        traffic = conv_layer_traffic(
            wl.in_channels,
            wl.out_channels,
            wl.kernel,
            wl.out_h,
            wl.out_w,
            wl.images,
            weight_bits=w_bits,
            act_bits=a_bits,
            reuse=self.reuse(wl),
            mem=self.mem,
        )
        mem_cycles = memory_cycles(traffic, self.mem)
        cycles = max(compute, mem_cycles)

        cores = mac_energy_pj(self._own_macs(wl), self.energy, self.mac_class_bits())
        # Buffer accesses: two operands per MAC through SRAM, amortised by
        # register-level (systolic) reuse.
        buffer_bytes = wl.total_macs * (w_bits + a_bits) / 8.0 / 16.0
        buffer_pj = buffer_bytes * self.energy.sram_pj_per_byte()
        dram_pj = traffic.total_bytes * self.energy.dram_pj_per_byte()
        static_pj = self.energy.fabric_static_pj_per_cycle * cycles

        return LayerSimResult(
            name=wl.name,
            compute_cycles=compute,
            memory_cycles=mem_cycles,
            energy=EnergyBreakdown(cores, buffer_pj, dram_pj, static_pj),
        )

    def simulate(self, workloads: list[LayerWorkload]) -> SimResult:
        with trace.span(
            "accel.simulate", accelerator=self.spec.name, layers=len(workloads)
        ) as sp:
            result = SimResult(accelerator=self.spec.name)
            for wl in workloads:
                with trace.span("accel.layer", accelerator=self.spec.name,
                                layer=wl.name) as lsp:
                    layer = self.simulate_layer(wl)
                    lsp.add("cycles", layer.cycles)
                    lsp.add("energy_pj", layer.energy.total_pj)
                result.layers.append(layer)
            sp.add("total_cycles", result.total_cycles)
        _log.debug(
            "simulated",
            accelerator=self.spec.name,
            layers=len(workloads),
            total_cycles=result.total_cycles,
        )
        return result


class Int16Accelerator(AcceleratorModel):
    """Static INT16 DoReFa baseline: native 16-bit PEs."""

    spec = ACCEL_INT16
    mac_classes = frozenset({"int16", "fp32"})

    def compute_cycles(self, wl: LayerWorkload) -> float:
        return wl.total_macs / self.spec.num_pes

    def operand_bits(self, wl: LayerWorkload) -> tuple[float, float]:
        return 16.0, 16.0


class Int8Accelerator(AcceleratorModel):
    """Static INT8 baseline on the INT4 multi-precision fabric."""

    spec = ACCEL_INT8
    mac_classes = frozenset({"int8", "int4"})

    def compute_cycles(self, wl: LayerWorkload) -> float:
        cycles_per_mac = bitfusion_mac_cycles(8, self.spec.native_bits)
        return wl.total_macs * cycles_per_mac / self.spec.num_pes

    def operand_bits(self, wl: LayerWorkload) -> tuple[float, float]:
        return 8.0, 8.0


class DRQAccelerator(AcceleratorModel):
    """Input-directed dynamic quantization fabric (DRQ).

    Sensitive-region MACs run at ``hi_bits`` (4 cycles on the INT4 fabric
    for INT8, 1 cycle for INT4), insensitive at ``lo_bits``.
    """

    spec = ACCEL_DRQ
    mac_classes = frozenset({"drq_hi", "drq_lo"})

    def __init__(self, hi_bits: int = 8, lo_bits: int = 4, **kwargs):
        super().__init__(**kwargs)
        self.hi_bits = hi_bits
        self.lo_bits = lo_bits

    def compute_cycles(self, wl: LayerWorkload) -> float:
        hi = wl.macs.get("drq_hi", 0)
        lo = wl.macs.get("drq_lo", 0)
        hi_c = bitfusion_mac_cycles(self.hi_bits, self.spec.native_bits)
        lo_c = bitfusion_mac_cycles(self.lo_bits, self.spec.native_bits)
        return (hi * hi_c + lo * lo_c) / self.spec.num_pes

    def operand_bits(self, wl: LayerWorkload) -> tuple[float, float]:
        f = wl.input_sensitive_fraction
        eff = self.hi_bits * f + self.lo_bits * (1.0 - f)
        return eff, eff

    def mac_class_bits(self) -> dict[str, int]:
        return {"drq_hi": self.hi_bits, "drq_lo": self.lo_bits}

    def reuse(self, wl: LayerWorkload) -> float:
        # Region-level sparsity costs some line-buffer reuse.
        return 0.5 * (self.mem.dense_reuse + self.mem.executor_reuse())


class ODQAccelerator(AcceleratorModel):
    """The reconfigurable ODQ accelerator (Section 4.3).

    ``allocation='dynamic'`` picks the Table-1 config per layer from the
    measured sensitive fraction; passing a :class:`PEAllocation` freezes a
    static split (for the Fig.-11 study).  ``scheduler`` selects how the
    executor's irregular work spreads over its PE arrays.
    """

    spec = ACCEL_ODQ
    mac_classes = frozenset({"pred_int2", "exec_int4"})

    def __init__(
        self,
        allocation: str | PEAllocation = "dynamic",
        scheduler: str = "dynamic",
        pes_per_array: int = PES_PER_ARRAY,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.allocation = allocation
        self.scheduler = scheduler
        self.pes_per_array = pes_per_array
        self.last_idle: list[IdleStats] = []

    def _alloc_for(self, wl: LayerWorkload) -> PEAllocation:
        if isinstance(self.allocation, PEAllocation):
            return self.allocation
        return choose_allocation(wl.sensitive_fraction)

    def _exec_macs(self, wl: LayerWorkload) -> int:
        """MACs the executor pass actually performs.

        With the result-generation census recorded
        (``exec_flops_full > 0``), this is the measured MAC count of the
        gathered-row full-result GEMM — the work the software sparse path
        *really* dispatches (whole rows: every channel of a spatial
        position with >= 1 sensitive channel; or the dense accumulate when
        the dense path won).  Without a census (old dumps, synthetic
        workloads) it falls back to the channel-granular ``exec_int4``
        count, preserving the historical accounting exactly.
        """
        if wl.exec_flops_full > 0:
            return wl.exec_flops_full
        return wl.macs.get("exec_int4", 0)

    def _executor_cycles(self, wl: LayerWorkload, alloc: PEAllocation) -> tuple[float, float]:
        """(cycles, scheduler idle fraction) of the executor pass."""
        exec_macs = self._exec_macs(wl)
        if exec_macs == 0:
            return 0.0, 0.0
        throughput = alloc.executor_arrays * self.pes_per_array
        ideal = exec_macs * EXECUTOR_MAC_CYCLES / throughput
        counts = wl.per_channel_sensitive
        if counts is None or counts.sum() == 0:
            return ideal, 0.0
        if self.scheduler == "dynamic":
            sched = odq_dynamic_schedule(counts, alloc.executor_arrays)
        elif self.scheduler == "static":
            sched = static_schedule(counts, alloc.executor_arrays)
        else:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if wl.exec_flops_full > 0:
            # Census-based accounting: the scheduler study still tells us
            # how unevenly the sensitive work spreads over the executor
            # arrays, but the per-array work items are now whole rows, so
            # apply the schedule's *idle fraction* to the measured-census
            # ideal rather than re-deriving cycles from channel counts.
            idle = sched.idle_fraction
            return ideal / max(1.0 - idle, 1e-9), idle
        # Scheduler makespan is in abstract output units (3 cycles per
        # sensitive output on one array); convert to real cycles where one
        # output costs macs_per_output MACs spread over an array's PEs.
        scale = wl.macs_per_output / self.pes_per_array
        return sched.makespan_cycles * scale, sched.idle_fraction

    def _own_macs(self, wl: LayerWorkload) -> dict[str, int]:
        """Energy census: replace ``exec_int4`` with the recorded census.

        Keeps cycle and energy accounting consistent — the executor
        cores spend energy on the rows they actually computed (the
        software sparse path computes *every* channel of a selected row,
        the dense path the full accumulate), not on the channel-granular
        sensitivity count.
        """
        own = super()._own_macs(wl)
        if wl.exec_flops_full > 0 and "exec_int4" in own:
            own = dict(own)
            own["exec_int4"] = wl.exec_flops_full
        return own

    def compute_cycles(self, wl: LayerWorkload) -> float:
        alloc = self._alloc_for(wl)
        pred_macs = wl.macs.get("pred_int2", wl.total_macs)
        pred = pred_macs * PREDICTOR_MAC_CYCLES / (
            alloc.predictor_arrays * self.pes_per_array
        )
        execu, _ = self._executor_cycles(wl, alloc)
        # Predictor and executor run as a pipeline over the output stream;
        # steady-state time is the slower stage.
        return max(pred, execu)

    def operand_bits(self, wl: LayerWorkload) -> tuple[float, float]:
        # Predictor reads 2-bit planes for everything; executor re-reads
        # the full 4-bit operands for the sensitive share.
        s = wl.sensitive_fraction
        eff = 2.0 + 4.0 * s
        return eff, eff

    def reuse(self, wl: LayerWorkload) -> float:
        # Dense predictor enjoys full reuse; sparse executor the clustered
        # reuse; weight by the share of traffic each generates.
        s = wl.sensitive_fraction
        dense_share = 2.0 / (2.0 + 4.0 * s) if s >= 0 else 1.0
        return dense_share * self.mem.dense_reuse + (1 - dense_share) * self.mem.executor_reuse()

    def simulate_layer(self, wl: LayerWorkload) -> LayerSimResult:
        result = super().simulate_layer(wl)
        alloc = self._alloc_for(wl)
        result.allocation = alloc
        result.idle = idle_fractions(wl.sensitive_fraction, alloc)
        _, sched_idle = self._executor_cycles(wl, alloc)
        result.scheduler_idle_fraction = sched_idle
        return result


def workloads_from_records(records) -> list[LayerWorkload]:
    """Convert the inference engine's per-layer records into workloads."""
    return [LayerWorkload.from_record(rec) for rec in records.values()]


def build_accelerator(name: str, **kwargs) -> AcceleratorModel:
    """Factory over the Table-2 accelerator names."""
    key = name.upper()
    if key == "INT16":
        return Int16Accelerator(**kwargs)
    if key == "INT8":
        return Int8Accelerator(**kwargs)
    if key == "DRQ":
        return DRQAccelerator(**kwargs)
    if key == "ODQ":
        return ODQAccelerator(**kwargs)
    raise KeyError(f"unknown accelerator {name!r} (Table 2 has INT16/INT8/DRQ/ODQ)")


__all__ = [
    "LayerWorkload",
    "LayerSimResult",
    "SimResult",
    "AcceleratorModel",
    "Int16Accelerator",
    "Int8Accelerator",
    "DRQAccelerator",
    "ODQAccelerator",
    "workloads_from_records",
    "build_accelerator",
]

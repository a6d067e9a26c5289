"""Performance & energy comparisons: Figures 19, 21 and Tables 1-2.

For each DNN the four schemes are run through the quantized inference
engine; the per-layer records become accelerator workloads; each Table-2
accelerator simulates its scheme.  Times and energies are reported
normalised to the INT16 DoReFa baseline, exactly like the paper's bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel.configs import TABLE2
from repro.accel.energy import EnergyBreakdown
from repro.accel.simulator import (
    SimResult,
    build_accelerator,
    workloads_from_records,
)
from repro.accel.alloc import table1_configurations
from repro.core.pipeline import run_scheme
from repro.core.schemes import drq_scheme, odq_scheme, static_scheme
from repro.nn.layers import Module
from repro.utils.report import ascii_table


@dataclass
class SchemeRun:
    """One (scheme, accelerator) evaluation of one model."""

    scheme: str
    accelerator: str
    accuracy: float
    sim: SimResult

    @property
    def cycles(self) -> float:
        return self.sim.total_cycles

    @property
    def energy(self) -> EnergyBreakdown:
        return self.sim.total_energy


@dataclass
class ModelComparison:
    """Fig. 19/21 rows for one DNN."""

    model_name: str
    runs: dict[str, SchemeRun] = field(default_factory=dict)

    def normalized_times(self) -> dict[str, float]:
        ref = self.runs["INT16"].cycles
        return {name: run.cycles / ref for name, run in self.runs.items()}

    def odq_speedup_vs(self, other: str) -> float:
        """Fractional execution-time reduction of ODQ vs another scheme."""
        t_odq = self.runs["ODQ"].cycles
        t_other = self.runs[other].cycles
        return 1.0 - t_odq / t_other

    def odq_energy_saving_vs(self, other: str) -> float:
        e_odq = self.runs["ODQ"].energy.total_pj
        e_other = self.runs[other].energy.total_pj
        return 1.0 - e_odq / e_other


def compare_accelerators(
    model: Module,
    model_name: str,
    x_calib: np.ndarray,
    x_eval: np.ndarray,
    y_eval: np.ndarray,
    odq_threshold: float,
    drq_hi: int = 8,
    drq_lo: int = 4,
    odq_model: Module | None = None,
) -> ModelComparison:
    """Run one model through all four (scheme, accelerator) pairs.

    ``odq_model`` is the ODQ-retrained twin used for the ODQ row.
    """
    plan = [
        ("INT16", static_scheme(16), build_accelerator("INT16")),
        ("INT8", static_scheme(8), build_accelerator("INT8")),
        ("DRQ", drq_scheme(drq_hi, drq_lo), build_accelerator("DRQ", hi_bits=drq_hi, lo_bits=drq_lo)),
        ("ODQ", odq_scheme(odq_threshold), build_accelerator("ODQ")),
    ]
    comparison = ModelComparison(model_name)
    for name, scheme, accel in plan:
        target = odq_model if (scheme.kind == "odq" and odq_model is not None) else model
        acc, records = run_scheme(target, scheme, x_calib, x_eval, y_eval)
        sim = accel.simulate(workloads_from_records(records))
        comparison.runs[name] = SchemeRun(name, accel.spec.name, acc, sim)
    return comparison


# -- rendering --------------------------------------------------------------------


def render_fig19(comparisons: list[ModelComparison]) -> str:
    """Fig. 19: normalized execution time per model per accelerator."""
    headers = ["model", "INT16", "INT8", "DRQ", "ODQ"]
    rows = []
    for c in comparisons:
        times = c.normalized_times()
        rows.append(
            [c.model_name] + [f"{times[k]:.4f}" for k in headers[1:]]
        )
    return ascii_table(headers, rows, title="Fig. 19: normalized execution time")


def render_fig21(comparisons: list[ModelComparison]) -> str:
    """Fig. 21: normalized energy with DRAM/Buffer/Cores breakdown."""
    headers = ["model", "scheme", "total", "cores", "buffer", "dram", "static"]
    rows = []
    for c in comparisons:
        ref = c.runs["INT16"].energy.total_pj
        for name, run in c.runs.items():
            shares = run.energy.normalized_to(ref)
            rows.append(
                [
                    c.model_name,
                    name,
                    f"{shares['total']:.4f}",
                    f"{shares['cores']:.4f}",
                    f"{shares['buffer']:.4f}",
                    f"{shares['dram']:.4f}",
                    f"{shares['static']:.4f}",
                ]
            )
    return ascii_table(headers, rows, title="Fig. 21: normalized energy")


def render_table1() -> str:
    """Table 1: PE-array configs vs max bubble-free sensitive fraction."""
    rows = [
        [
            c.predictor_arrays,
            c.executor_arrays,
            int(100 * c.max_sensitive_fraction),  # paper floors these
        ]
        for c in table1_configurations()
    ]
    return ascii_table(
        ["# predictor arrays", "# executor arrays", "max sensitive %"],
        rows,
        title="Table 1: PE allocation vs bubble-free sensitivity",
    )


def render_table2() -> str:
    """Table 2: the accelerator configurations."""
    rows = [
        [spec.name, spec.num_pes, f"INT{spec.native_bits}", f"{spec.onchip_memory_bytes / 2**20:.2f} MB"]
        for spec in TABLE2.values()
    ]
    return ascii_table(
        ["accelerator", "#PEs", "native width", "on-chip memory"],
        rows,
        title="Table 2: accelerator configurations",
    )


__all__ = [
    "SchemeRun",
    "ModelComparison",
    "compare_accelerators",
    "render_fig19",
    "render_fig21",
    "render_table1",
    "render_table2",
]

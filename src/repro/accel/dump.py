"""Mask-dump serialization: the paper's PyTorch -> simulator hand-off.

Section 5.2: "we use Pytorch to dump the binary mask maps for inference,
which are then fed into our simulator to test a model's inference time."
This module is that file format: per-layer workloads (shapes, MAC census,
sensitivity masks/fractions) are written to a single ``.npz`` so the
quantized-inference stage and the accelerator-simulation stage can run in
separate processes (or machines), exactly like the paper's flow.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.accel.simulator import LayerWorkload

FORMAT_VERSION = 1


def save_workloads(path: str | Path, workloads: list[LayerWorkload]) -> Path:
    """Serialize workloads to a ``.npz`` mask dump."""
    path = Path(path)
    meta = []
    arrays: dict[str, np.ndarray] = {}
    for i, wl in enumerate(workloads):
        meta.append(
            {
                "name": wl.name,
                "in_channels": wl.in_channels,
                "out_channels": wl.out_channels,
                "kernel": wl.kernel,
                "out_h": wl.out_h,
                "out_w": wl.out_w,
                "images": wl.images,
                "macs": dict(wl.macs),
                "sensitive_fraction": wl.sensitive_fraction,
                "input_sensitive_fraction": wl.input_sensitive_fraction,
                "has_channel_counts": wl.per_channel_sensitive is not None,
                # Result-generation dispatch census (0 when the source run
                # predates census instrumentation; see LayerWorkload docs).
                "exec_rows_total": wl.exec_rows_total,
                "exec_rows_computed": wl.exec_rows_computed,
                "exec_flops_full": wl.exec_flops_full,
            }
        )
        if wl.per_channel_sensitive is not None:
            arrays[f"channel_counts_{i}"] = np.asarray(
                wl.per_channel_sensitive, dtype=np.int64
            )
    # The JSON header is stored as one opaque byte record.
    arrays["meta"] = np.void(
        json.dumps({"version": FORMAT_VERSION, "layers": meta}).encode()
    )
    np.savez_compressed(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_workloads(path: str | Path) -> list[LayerWorkload]:
    """Load a mask dump written by :func:`save_workloads`."""
    with np.load(Path(path)) as data:
        header = json.loads(bytes(data["meta"]).decode())
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported mask-dump version {header.get('version')!r}"
            )
        workloads = []
        for i, m in enumerate(header["layers"]):
            counts = (
                data[f"channel_counts_{i}"] if m.pop("has_channel_counts") else None
            )
            macs = {k: int(v) for k, v in m.pop("macs").items()}
            # Census keys are absent from dumps written before the
            # result-generation census existed; default them to 0 so the
            # simulator falls back to channel-granular accounting.
            for key in ("exec_rows_total", "exec_rows_computed", "exec_flops_full"):
                m[key] = int(m.get(key, 0))
            workloads.append(
                LayerWorkload(
                    macs=macs, per_channel_sensitive=counts, **m
                )
            )
    return workloads


__all__ = ["save_workloads", "load_workloads", "FORMAT_VERSION"]

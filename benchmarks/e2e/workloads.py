"""The benchmark's workloads and the request bodies each one sends.

A workload fixes the server (its ``repro serve`` options and
``REPRO_SCALE``) and the traffic (brightness, the open-loop arrival
rate).  Timed requests carry one image each.  Bodies are generated from
``--seed`` with :func:`repro.data.synthetic.make_synthetic_dataset`,
rounded to four decimals and JSON-encoded before any timing starts.
Every request body is distinct.

Two workloads, one on each side of the ODQ sparse path: on
``lenet-1img`` (the serve default) ``auto`` runs dense in nearly every
call and HTTP overhead dominates; on ``resnet20-dim`` compute dominates
and ``auto`` runs sparse.  A change to the sparse path should move the
second and leave the first alone.  More workloads would not fit: every
workload costs 22 runs of the benchmark's one-hour budget, and with four
a run could measure for only 14 s, which left resnet20 throughput
spreading past its bound on a shared 2-core host.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

#: ``ServeConfig.max_batch_size`` of every workload (the serve default);
#: set-up sends one request of each size up to it.
MAX_BATCH = 8

#: Images per request of the correctness probe: 1-8, twice.
PROBE_SIZES = tuple(range(1, MAX_BATCH + 1)) * 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``ServeConfig`` fields the server starts with (also the reference).
    serve: dict
    #: ``REPRO_SCALE`` of the server and of the reference session.
    scale: str
    #: Open-loop Poisson arrival rate, requests per second.
    rate: float
    #: Pixel multiplier; below 1 fewer conv outputs are sensitive.
    brightness: float = 1.0

    def server_args(self) -> list[str]:
        args = []
        for key, value in self.serve.items():
            args += [f"--{key.replace('_', '-')}", str(value)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lenet-1img",
            serve={"model": "lenet"},
            scale="small",
            rate=20.0,
        ),
        Workload(
            name="resnet20-dim",
            serve={"model": "resnet20", "dataset": "cifar10"},
            scale="default",
            rate=7.0,
            brightness=0.35,
        ),
    )
}


@dataclass
class Stream:
    """Pre-encoded request bodies and the images each one carries."""

    bodies: list[bytes] = field(default_factory=list)
    images: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.bodies)


def _images(workload: Workload, seed: int, count: int) -> np.ndarray:
    """``count`` images shaped and styled like the server's dataset
    (``repro.serve.session``: synthetic MNIST or CIFAR-10 at the scale)."""
    from repro.config import ExperimentScale
    from repro.data.synthetic import make_synthetic_dataset

    scale = ExperimentScale.default() if workload.scale == "default" else ExperimentScale.small()
    if workload.serve.get("dataset", "mnist") == "mnist":
        style = {"image_size": 28, "channels": 1, "noise": 0.2}
    else:
        style = {"image_size": scale.image_size, "channels": 3, "noise": scale.noise}
    ds = make_synthetic_dataset(
        num_classes=10, num_train=count, num_test=1, max_shift=scale.max_shift,
        seed=seed, **style,
    )
    return np.round(ds.x_train * workload.brightness, 4)


def make_traffic(workload: Workload, seed: int, warmup: int, closed: int,
                 open_: int) -> dict[str, Stream]:
    """Bodies for the set-up, warm-up, closed-loop, open-loop and probe phases."""
    sizes = {
        "setup": list(range(1, MAX_BATCH + 1)),
        "warmup": [1] * warmup,
        "closed": [1] * closed,
        "open": [1] * open_,
        "probe": list(PROBE_SIZES),
    }
    pixels = _images(workload, seed, sum(sum(s) for s in sizes.values()))
    streams: dict[str, Stream] = {}
    offset = 0
    for phase, counts in sizes.items():
        stream = streams[phase] = Stream()
        for n in counts:
            payload = {"inputs": pixels[offset : offset + n].tolist()}
            if phase == "probe":
                payload["return_logits"] = True
            stream.bodies.append(json.dumps(payload).encode())
            stream.images.append(n)
            offset += n
    return streams

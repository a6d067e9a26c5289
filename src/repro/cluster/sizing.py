"""Replica sizing and mask-aware chunk placement (pure functions).

Two decisions live here, both deliberately free of I/O so they are unit
testable and auditable:

* **How many replicas should this box run?**
  :func:`recommended_replicas` derives the default from
  ``os.sched_getaffinity`` (the *usable* cores — containers routinely
  restrict the affinity mask well below ``os.cpu_count()``), and
  :func:`autoscale_hint` nudges it using the observed per-replica busy
  fractions the shared stats block exposes.
* **Which replica should run this chunk?**  :func:`place_chunks`
  balances *predicted sensitive-row work*, not request counts: ODQ's
  cost per image is dominated by the executor phase, which only
  computes the sensitive output rows, so a chunk's predicted cost is
  ``images * (PREDICT_COST + sensitive_ratio)`` — the INT2 prediction
  pass everyone pays plus the census-measured sensitive fraction
  (:func:`predicted_chunk_cost`).  Placement is greedy
  longest-processing-time onto the least-loaded replica, seeded with
  each replica's current outstanding work.

Chunk *boundaries* are none of this module's business: the router cuts
deterministic fixed-size chunks (see ``router.py`` — ODQ quantization
ranges are computed per inference batch, so batch composition is part
of the numerical contract and must not depend on replica count or
load).  Only *placement* is load-dependent.
"""

from __future__ import annotations

from repro.utils.host import usable_cores

#: Relative cost of the always-paid prediction phase (INT2 partials over
#: every output) per image, in units of "full-result rows per output".
#: The executor phase then costs ``sensitive_ratio`` on top: a 0.3-dense
#: layer costs ~0.55 of a dense layer, matching the BENCH_odq_sparse
#: crossover region.
PREDICT_COST = 0.25

#: Cap on the derived replica default — past this the per-replica
#: session builds and shared-memory arenas cost more than the extra
#: processes return on the GEMM sizes this repo serves.
MAX_DEFAULT_REPLICAS = 8


def recommended_replicas(cores: int | None = None) -> int:
    """Default replica count for ``--replicas auto``: one per usable core.

    Engine replicas are process-parallel (no GIL sharing), so the right
    default is the affinity-mask size, capped at
    :data:`MAX_DEFAULT_REPLICAS`; a 1-core box gets 1 replica (the
    in-process thread pool path) rather than paying transport overhead
    for no parallelism.
    """
    cores = usable_cores() if cores is None else int(cores)
    return max(1, min(cores, MAX_DEFAULT_REPLICAS))


def autoscale_hint(busy_fractions: list[float], replicas: int,
                   cores: int | None = None) -> int:
    """Suggested replica count given observed worker-busy fractions.

    Saturated replicas (mean busy fraction above 0.75) suggest growing
    while cores remain; mostly-idle ones (below 0.25) suggest shrinking.
    Returns a count in ``[1, usable_cores]`` — advisory only, surfaced
    by the bench and ``/healthz``, never applied automatically.
    """
    cores = usable_cores() if cores is None else int(cores)
    if not busy_fractions:
        return replicas
    mean_busy = sum(busy_fractions) / max(1, len(busy_fractions))
    if mean_busy > 0.75 and replicas < cores:
        return min(cores, replicas + 1)
    if mean_busy < 0.25 and replicas > 1:
        return replicas - 1
    return replicas


def predicted_chunk_cost(images: int, sensitive_ratio: float) -> float:
    """Predicted relative cost of inferring ``images`` on one replica.

    ``sensitive_ratio`` is the census-measured fraction of output rows
    the executor actually computes (``sens_rows_computed /
    sens_rows_total``); 1.0 (dense) when no census exists yet.
    """
    ratio = sensitive_ratio if 0.0 <= sensitive_ratio <= 1.0 else 1.0
    return float(images) * (PREDICT_COST + ratio)


def place_chunks(
    chunk_images: list[int],
    replica_loads: list[float],
    sensitive_ratio: float = 1.0,
) -> list[int]:
    """Assign each chunk to a replica, equalizing predicted work.

    ``chunk_images[i]`` is the image count of chunk *i*;
    ``replica_loads[r]`` the replica's current outstanding predicted
    work (queued + in-flight chunk costs, plus any busy-fraction bias
    the router folds in).  Greedy LPT: place chunks largest-first onto
    the currently least-loaded replica; ties break on the lower replica
    id so placement is deterministic.  Returns the replica index per
    chunk, in the original chunk order.
    """
    if not replica_loads:
        raise ValueError("no replicas to place onto")
    loads = [float(x) for x in replica_loads]
    order = sorted(
        range(len(chunk_images)), key=lambda i: (-chunk_images[i], i)
    )
    assignment = [0] * len(chunk_images)
    for i in order:
        target = min(range(len(loads)), key=lambda r: (loads[r], r))
        assignment[i] = target
        loads[target] += predicted_chunk_cost(chunk_images[i], sensitive_ratio)
    return assignment


__all__ = [
    "PREDICT_COST",
    "MAX_DEFAULT_REPLICAS",
    "usable_cores",
    "recommended_replicas",
    "autoscale_hint",
    "predicted_chunk_cost",
    "place_chunks",
]

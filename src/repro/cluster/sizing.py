"""Replica sizing: how many replicas should this box run?

:func:`recommended_replicas` derives the ``--replicas auto`` default
from ``os.sched_getaffinity`` (the *usable* cores — containers routinely
restrict the affinity mask well below ``os.cpu_count()``).  It is a pure
function so the default is unit testable without spawning anything.
"""

from __future__ import annotations

from repro.utils.host import usable_cores

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


__all__ = [
    "MAX_DEFAULT_REPLICAS",
    "usable_cores",
    "recommended_replicas",
]

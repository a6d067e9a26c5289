"""Multi-process replica tier for the ODQ serving stack.

``repro.cluster`` scales :mod:`repro.serve` past the GIL: *N* replica
processes each run a full engine (:mod:`~repro.cluster.worker`), fed
through shared-memory arenas (:mod:`~repro.cluster.shm`); each chunk
goes to the replica with the fewest queued images.  The
:class:`~repro.cluster.router.ClusterPool` facade mirrors the
in-process ``WorkerPool`` (submit a batch, get a future), and the
:class:`~repro.cluster.supervisor.Supervisor` keeps the replica
processes alive with bounded-backoff respawn.

Front-end integration lives in :mod:`repro.serve`: ``ServeConfig.replicas``
selects this tier, and ``repro serve --replicas N`` exposes it.
"""

from repro.cluster.router import (
    ClusterClosed,
    ClusterPool,
    ReplicaError,
)
from repro.cluster.shm import STATS_FIELDS, ShmArena, ShmSegment, ShmStatsBlock
from repro.cluster.sizing import recommended_replicas, usable_cores
from repro.cluster.supervisor import ReplicaHandle, Supervisor, slot_floats_for
from repro.cluster.worker import CRASH_EXIT_CODE, ReplicaSpec, replica_main

__all__ = [
    "ClusterPool",
    "ClusterClosed",
    "ReplicaError",
    "ShmSegment",
    "ShmArena",
    "ShmStatsBlock",
    "STATS_FIELDS",
    "Supervisor",
    "ReplicaHandle",
    "ReplicaSpec",
    "replica_main",
    "CRASH_EXIT_CODE",
    "slot_floats_for",
    "usable_cores",
    "recommended_replicas",
]

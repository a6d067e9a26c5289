"""Replica sizing and chunk placement (no replica processes spawned).

Placement is driven through ``ClusterPool._place`` on an unstarted pool
whose replica queues the tests fill by hand.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterClosed, ClusterPool
from repro.cluster.router import _CensusProbe, _Chunk, _Submission
from repro.cluster.sizing import (
    MAX_DEFAULT_REPLICAS,
    recommended_replicas,
    usable_cores,
)
from tests.cluster.conftest import ECHO_CLASSES, ECHO_SHAPE, echo_config


class TestDefaults:
    def test_usable_cores_positive(self):
        assert usable_cores() >= 1

    @pytest.mark.parametrize(
        "cores,expected", [(1, 1), (4, 4), (8, 8), (64, MAX_DEFAULT_REPLICAS)]
    )
    def test_recommended_replicas(self, cores, expected):
        assert recommended_replicas(cores) == expected


def unstarted_pool(replicas: int) -> ClusterPool:
    return ClusterPool(
        echo_config(replicas=replicas),
        input_shape=ECHO_SHAPE,
        num_classes=ECHO_CLASSES,
    )


def chunk(images: int) -> _Chunk:
    return _Chunk(
        submission=_Submission(images, 1),
        arr=np.zeros((images, *ECHO_SHAPE)),
        offset=0,
    )


def chunks(*sizes: int) -> list[_Chunk]:
    return [chunk(n) for n in sizes]


def fill(pool: ClusterPool, rid: int, queued=(), inflight=()) -> None:
    st = pool._replicas[rid]
    st.queue.extend(chunks(*queued))
    for seq, n in enumerate(inflight):
        st.inflight[seq] = (chunk(n), seq)


class TestPlacement:
    def test_balances_equal_chunks_round_robin(self):
        # Each chunk counts onto its target before the next is placed.
        pool = unstarted_pool(2)
        assert pool._place(chunks(4, 4, 4, 4)) == [0, 1, 0, 1]

    def test_prefers_less_loaded_replica(self):
        pool = unstarted_pool(2)
        fill(pool, 0, queued=[4, 4])
        assert pool._place(chunks(4, 4, 4)) == [1, 1, 0]

    def test_counts_queued_plus_inflight_images(self):
        pool = unstarted_pool(3)
        fill(pool, 0, queued=[4])          # 1 chunk, 4 images
        fill(pool, 1, queued=[1, 1])       # 2 chunks, 2 images
        fill(pool, 2, inflight=[3])        # nothing queued, 3 in flight
        pool._replicas[1].queue.append(_CensusProbe())  # not an image
        assert pool._place(chunks(4)) == [1]

    def test_deterministic(self):
        # Equal loads go to the lowest replica id.
        pool = unstarted_pool(3)
        assert pool._place(chunks(2)) == [0]
        fill(pool, 0, queued=[2])
        fill(pool, 1, queued=[1])
        fill(pool, 2, inflight=[1])
        assert pool._place(chunks(2)) == [1]

    def test_result_in_original_chunk_order(self):
        # Chunks are placed in submission order, not largest first.
        pool = unstarted_pool(2)
        assert pool._place(chunks(1, 4)) == [0, 1]

    def test_skips_replicas_not_up(self):
        pool = unstarted_pool(3)
        fill(pool, 2, queued=[4, 4])
        pool._replicas[0].state = "failed"
        pool._replicas[1].state = "draining"
        assert pool._place(chunks(1, 1)) == [2, 2]

    def test_no_replicas_raises(self):
        pool = unstarted_pool(2)
        for st in pool._replicas.values():
            st.state = "drained"
        with pytest.raises(ClusterClosed):
            pool._place(chunks(1))

"""ClusterPool end-to-end over echo replicas: routing, recovery, drain.

Every test here spawns real replica *processes* (echo mode — no engine
build) and exercises the real shared-memory transport.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterClosed, ClusterPool
from tests.cluster.conftest import (
    ECHO_CLASSES,
    ECHO_SHAPE,
    echo_config,
    expected_echo,
)


def requests(rng, n, size):
    return [rng.normal(size=(size, *ECHO_SHAPE)) for _ in range(n)]


def wait_for(predicate, timeout=10.0):
    """Poll until true: replicas update their stats rows *after* sending
    the result, so counter assertions must not race the writer."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestSubmission:
    def test_single_and_multi_chunk_results_exact(self, echo_pool):
        rng = np.random.default_rng(0)
        small = rng.normal(size=(2, *ECHO_SHAPE))      # one chunk
        large = rng.normal(size=(11, *ECHO_SHAPE))     # three chunks (cap 4)
        out_small = echo_pool.submit(small).result(timeout=30)
        out_large = echo_pool.submit(large).result(timeout=30)
        assert np.array_equal(out_small, expected_echo(small))
        assert np.array_equal(out_large, expected_echo(large))
        assert out_large.shape == (11, ECHO_CLASSES)

    def test_3d_input_promoted_to_single_image(self, echo_pool):
        img = np.random.default_rng(1).normal(size=ECHO_SHAPE)
        out = echo_pool.submit(img).result(timeout=30)
        assert out.shape == (1, ECHO_CLASSES)

    def test_bad_shape_rejected(self, echo_pool):
        with pytest.raises(ValueError):
            echo_pool.submit(np.zeros((2, 3, 3, 3)))

    def test_empty_batch_rejected(self, echo_pool):
        # No chunk can complete an empty submission: it must fail fast,
        # not leave a future that never resolves.
        with pytest.raises(ValueError, match="empty batch"):
            echo_pool.submit(np.zeros((0, *ECHO_SHAPE))).result(timeout=3)

    def test_many_concurrent_submissions(self, echo_pool):
        rng = np.random.default_rng(2)
        arrs = requests(rng, 20, 3)
        futs = [echo_pool.submit(a) for a in arrs]
        for a, f in zip(arrs, futs):
            assert np.array_equal(f.result(timeout=60), expected_echo(a))
        assert echo_pool.submitted >= 20

    def test_work_spreads_across_replicas(self, echo_pool):
        rng = np.random.default_rng(3)
        futs = [echo_pool.submit(a) for a in requests(rng, 16, 4)]
        for f in futs:
            f.result(timeout=60)
        assert wait_for(
            lambda: all(s["batches"] > 0 for s in echo_pool.stats())
        ), echo_pool.stats()


class TestAffinity:
    def test_same_key_lands_on_one_replica(self, echo_pool):
        rng = np.random.default_rng(4)
        before = {s["name"]: s["batches"] for s in echo_pool.stats()}
        futs = [
            echo_pool.submit(a, affinity="tenant-A")
            for a in requests(rng, 6, 2)
        ]
        for f in futs:
            f.result(timeout=60)
        assert wait_for(
            lambda: sum(s["batches"] for s in echo_pool.stats())
            == sum(before.values()) + 6
        )
        after = {s["name"]: s["batches"] for s in echo_pool.stats()}
        grew = [n for n in after if after[n] > before[n]]
        assert len(grew) == 1  # all six requests on the ring owner

    def test_affinity_matches_ring_assignment(self, echo_pool):
        rid = echo_pool.ring.assign("tenant-B")
        before = echo_pool.stats()[rid]["batches"]
        echo_pool.submit(
            np.zeros((1, *ECHO_SHAPE)), affinity="tenant-B"
        ).result(timeout=30)
        assert wait_for(
            lambda: echo_pool.stats()[rid]["batches"] == before + 1
        ), echo_pool.stats()


class TestLifecycle:
    def test_shutdown_rejects_new_work(self, echo_pool):
        echo_pool.shutdown()
        with pytest.raises(ClusterClosed):
            echo_pool.submit(np.zeros((1, *ECHO_SHAPE)))

    def test_liveness_surface(self, echo_pool):
        rows = echo_pool.liveness()
        assert len(rows) == 2
        for row in rows:
            assert row["alive"] is True
            assert row["router_state"] == "up"
            assert row["generation"] == 0
            assert row["queued_chunks"] == 0

    def test_rolling_restart_bumps_generation(self, echo_pool):
        arr = np.random.default_rng(5).normal(size=(3, *ECHO_SHAPE))
        assert echo_pool.drain_replica(0, restart=True, timeout=60)
        assert echo_pool.supervisor.handle(0).generation == 1
        # Replica 0 serves again after its restart.
        out = echo_pool.submit(arr, affinity=None).result(timeout=60)
        assert np.array_equal(out, expected_echo(arr))
        assert echo_pool.liveness()[0]["router_state"] == "up"


class TestCrashRecovery:
    def test_no_request_loss_across_crashes(self):
        # Every replica exits (code 23) after 2 batches, repeatedly; all
        # submissions must still complete exactly, via requeue + respawn.
        pool = ClusterPool(
            echo_config(replicas=2, cluster_exit_after=2),
            input_shape=ECHO_SHAPE,
            num_classes=ECHO_CLASSES,
            backoff_base=0.05,
            backoff_cap=0.2,
        )
        pool.start()
        try:
            rng = np.random.default_rng(6)
            arrs = requests(rng, 10, 4)
            futs = [pool.submit(a) for a in arrs]
            for a, f in zip(arrs, futs):
                assert np.array_equal(f.result(timeout=120), expected_echo(a))
            assert pool.requeued > 0  # crashes actually happened
            assert any(
                pool.supervisor.respawn_count(r) > 0 for r in range(2)
            )
        finally:
            pool.shutdown()

    def test_metrics_fold_across_generations(self):
        # Counters must stay monotonic through a crash (dead generation
        # folded into the router's totals, not lost).
        from repro.serve.metrics import MetricsRegistry

        pool = ClusterPool(
            echo_config(replicas=1, cluster_exit_after=2),
            input_shape=ECHO_SHAPE,
            num_classes=ECHO_CLASSES,
            metrics=MetricsRegistry(),
            backoff_base=0.05,
            backoff_cap=0.2,
        )
        pool.start()
        try:
            rng = np.random.default_rng(7)
            for a in requests(rng, 5, 2):
                pool.submit(a).result(timeout=120)

            def folded_total():
                pool.refresh_metrics()
                counters = pool.metrics.as_dict()["counters"]
                return counters.get("replica_batches_total@replica=0", 0)

            assert wait_for(lambda: folded_total() >= 5), folded_total()
        finally:
            pool.shutdown()

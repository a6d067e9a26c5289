"""Sizing and mask-aware placement (pure-function tier)."""

from __future__ import annotations

import pytest

from repro.cluster.sizing import (
    MAX_DEFAULT_REPLICAS,
    PREDICT_COST,
    autoscale_hint,
    place_chunks,
    predicted_chunk_cost,
    recommended_replicas,
    usable_cores,
)


class TestDefaults:
    def test_usable_cores_positive(self):
        assert usable_cores() >= 1

    @pytest.mark.parametrize(
        "cores,expected", [(1, 1), (4, 4), (8, 8), (64, MAX_DEFAULT_REPLICAS)]
    )
    def test_recommended_replicas(self, cores, expected):
        assert recommended_replicas(cores) == expected


class TestAutoscaleHint:
    def test_saturated_grows_within_cores(self):
        assert autoscale_hint([0.9, 0.85], replicas=2, cores=4) == 3
        assert autoscale_hint([0.9, 0.85], replicas=4, cores=4) == 4  # capped

    def test_idle_shrinks_to_floor_of_one(self):
        assert autoscale_hint([0.1, 0.05], replicas=2, cores=4) == 1
        assert autoscale_hint([0.1], replicas=1, cores=4) == 1

    def test_moderate_load_and_no_data_hold(self):
        assert autoscale_hint([0.5, 0.6], replicas=2, cores=4) == 2
        assert autoscale_hint([], replicas=3, cores=4) == 3


class TestPredictedCost:
    def test_scales_with_images_and_density(self):
        dense = predicted_chunk_cost(8, 1.0)
        sparse = predicted_chunk_cost(8, 0.1)
        assert dense == 8 * (PREDICT_COST + 1.0)
        assert sparse < dense
        assert predicted_chunk_cost(16, 0.5) == 2 * predicted_chunk_cost(8, 0.5)

    def test_out_of_range_ratio_clamps_to_dense(self):
        assert predicted_chunk_cost(4, -0.5) == predicted_chunk_cost(4, 1.0)
        assert predicted_chunk_cost(4, 3.0) == predicted_chunk_cost(4, 1.0)


class TestPlacement:
    def test_balances_equal_chunks_round_robin(self):
        out = place_chunks([4, 4, 4, 4], [0.0, 0.0])
        assert sorted(out) == [0, 0, 1, 1]

    def test_prefers_less_loaded_replica(self):
        # Replica 0 starts with outstanding work; all new chunks should
        # land on replica 1 until the loads even out.
        out = place_chunks([4], [100.0, 0.0])
        assert out == [1]

    def test_lpt_equalizes_predicted_work(self):
        sizes = [8, 1, 1, 1, 1, 8, 2, 2]
        out = place_chunks(sizes, [0.0, 0.0], sensitive_ratio=1.0)
        loads = [0.0, 0.0]
        for size, rep in zip(sizes, out):
            loads[rep] += predicted_chunk_cost(size, 1.0)
        assert abs(loads[0] - loads[1]) <= predicted_chunk_cost(2, 1.0)

    def test_deterministic(self):
        sizes = [3, 7, 2, 9, 4, 4]
        a = place_chunks(sizes, [0.0, 0.0, 0.0], 0.4)
        b = place_chunks(sizes, [0.0, 0.0, 0.0], 0.4)
        assert a == b

    def test_result_in_original_chunk_order(self):
        sizes = [1, 9]
        out = place_chunks(sizes, [0.0, 0.0])
        assert len(out) == 2
        # The big chunk (index 1) is placed first (LPT) but reported at
        # its original position.
        assert out[1] in (0, 1)

    def test_no_replicas_raises(self):
        with pytest.raises(ValueError):
            place_chunks([1], [])

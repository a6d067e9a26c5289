"""Shared-memory transport primitives: segments, arenas, stats block."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.shm import STATS_FIELDS, ShmArena, ShmSegment, ShmStatsBlock


class TestShmSegment:
    def test_create_attach_share_bytes(self):
        with ShmSegment(nbytes=64) as seg:
            seg.buf[:4] = b"abcd"
            attached = ShmSegment(name=seg.name)
            try:
                assert bytes(attached.buf[:4]) == b"abcd"
                assert not attached.owner and seg.owner
            finally:
                attached.close()

    def test_create_xor_attach(self):
        with pytest.raises(ValueError):
            ShmSegment()
        with pytest.raises(ValueError):
            ShmSegment(nbytes=8, name="x")

    def test_close_is_idempotent(self):
        seg = ShmSegment(nbytes=16)
        seg.close()
        seg.close()
        seg.unlink()


class TestShmArena:
    def test_write_then_read_roundtrip(self):
        with ShmArena(slots=3, slot_floats=32) as arena:
            arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
            shape = arena.write(1, arr)
            assert shape == (2, 3, 4)
            out = arena.read(1, shape)
            assert np.array_equal(out, arr)
            # read() owns its data: mutating the slot must not alias it.
            arena.write(1, np.zeros((2, 3, 4)))
            assert np.array_equal(out, arr)

    def test_cross_attach_zero_copy_view(self):
        with ShmArena(slots=2, slot_floats=16) as arena:
            attached = ShmArena(slots=2, slot_floats=16, name=arena.name)
            try:
                arena.write(0, np.full((4, 4), 7.0))
                assert np.array_equal(attached.view(0, (4, 4)), np.full((4, 4), 7.0))
            finally:
                attached.close()

    def test_bounds_checked(self):
        with ShmArena(slots=2, slot_floats=8) as arena:
            with pytest.raises(IndexError):
                arena.view(2, (1,))
            with pytest.raises(ValueError):
                arena.view(0, (3, 3))  # 9 floats > 8

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ShmArena(slots=0, slot_floats=8)
        with pytest.raises(ValueError):
            ShmArena(slots=1, slot_floats=0)


class TestShmStatsBlock:
    def test_owner_zeroes_and_fields_roundtrip(self):
        with ShmStatsBlock(replicas=2) as stats:
            assert all(v == 0.0 for v in stats.snapshot(0).values())
            stats.set(0, "pid", 1234.0)
            stats.add(0, "images", 8.0)
            stats.add(0, "images", 4.0)
            assert stats.get(0, "pid") == 1234.0
            assert stats.get(0, "images") == 12.0
            # Rows are independent (single-writer-per-row contract).
            assert stats.get(1, "images") == 0.0

    def test_snapshot_all_rows_detached(self):
        with ShmStatsBlock(replicas=2) as stats:
            stats.set(1, "batches", 5.0)
            snap = stats.snapshot()
            assert len(snap) == 2
            assert snap[1]["batches"] == 5.0
            stats.set(1, "batches", 9.0)
            assert snap[1]["batches"] == 5.0  # copy, not a view

    def test_attacher_sees_writer_updates(self):
        with ShmStatsBlock(replicas=1) as stats:
            reader = ShmStatsBlock(replicas=1, name=stats.name)
            try:
                stats.set(0, "heartbeat", 42.0)
                assert reader.get(0, "heartbeat") == 42.0
            finally:
                reader.close()

    def test_schema_covers_protocol_fields(self):
        # The worker/router protocol writes these; renaming one silently
        # desynchronizes the two processes, so pin the schema.
        for f in ("pid", "alive", "heartbeat", "images",
                  "batches", "errors", "busy_seconds",
                  "sens_rows_total", "sens_rows_computed"):
            assert f in STATS_FIELDS
        # One increment per chunk made it a copy of ``batches``.
        assert "requests" not in STATS_FIELDS

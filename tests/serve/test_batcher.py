"""Micro-batcher: coalescing policy, future splitting, shutdown semantics."""

import threading
import time

import numpy as np
import pytest

from repro.serve.batcher import BatcherClosed, MicroBatcher

IMG = (1, 4, 4)  # tiny C,H,W for queue tests (no engine involved)


def _img(value: float = 0.0) -> np.ndarray:
    return np.full(IMG, value)


class TestSubmit:
    def test_single_image_is_promoted_to_batch(self):
        b = MicroBatcher()
        b.submit(_img())
        batch = b.next_batch(timeout=1)
        assert batch.size == 1
        assert batch.stack().shape == (1, *IMG)

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher().submit(np.zeros((4, 4)))

    def test_empty_batch_rejected(self):
        b = MicroBatcher()
        with pytest.raises(ValueError, match="empty batch"):
            b.submit(np.zeros((0, *IMG)))
        assert b.submitted == 0

    def test_submit_after_shutdown_raises(self):
        b = MicroBatcher()
        b.shutdown()
        with pytest.raises(BatcherClosed):
            b.submit(_img())


class TestCoalescing:
    def test_coalesces_up_to_max_batch_size(self):
        b = MicroBatcher(max_batch_size=4)
        for i in range(6):
            b.submit(_img(i))
        first = b.next_batch(timeout=1)
        second = b.next_batch(timeout=1)
        assert first.size == 4
        assert second.size == 2
        # FIFO order preserved through the split
        np.testing.assert_array_equal(first.stack()[0], _img(0))
        np.testing.assert_array_equal(second.stack()[0], _img(4))

    def test_lone_request_dispatches_at_once(self):
        # A worker asking for work takes what is queued without holding
        # the batch open for company.
        b = MicroBatcher(max_batch_size=64)
        elapsed = []
        for _ in range(5):
            b.submit(_img())
            t0 = time.perf_counter()
            batch = b.next_batch(timeout=1)
            elapsed.append(time.perf_counter() - t0)
            assert batch.size == 1
        assert min(elapsed) < 0.5e-3

    def test_oversize_request_rides_alone(self):
        b = MicroBatcher(max_batch_size=2)
        b.submit(np.zeros((5, *IMG)))  # bigger than the cap
        batch = b.next_batch(timeout=1)
        assert batch.size == 5
        assert len(batch.requests) == 1

    def test_never_splits_a_request_across_batches(self):
        b = MicroBatcher(max_batch_size=4)
        b.submit(np.zeros((3, *IMG)))
        b.submit(np.zeros((3, *IMG)))
        first = b.next_batch(timeout=1)
        second = b.next_batch(timeout=1)
        assert first.size == 3 and second.size == 3

    def test_timeout_returns_none_when_idle(self):
        assert MicroBatcher().next_batch(timeout=0.01) is None


class TestCompletion:
    def test_results_split_back_per_request(self):
        b = MicroBatcher(max_batch_size=8)
        f1 = b.submit(np.zeros((2, *IMG)))
        f2 = b.submit(np.zeros((1, *IMG)))
        batch = b.next_batch(timeout=1)
        outputs = np.arange(3 * 10, dtype=float).reshape(3, 10)
        batch.complete(outputs)
        np.testing.assert_array_equal(f1.result(timeout=1), outputs[:2])
        np.testing.assert_array_equal(f2.result(timeout=1), outputs[2:])

    def test_row_mismatch_fails_futures(self):
        b = MicroBatcher()
        fut = b.submit(_img())
        batch = b.next_batch(timeout=1)
        batch.complete(np.zeros((3, 10)))
        with pytest.raises(ValueError):
            fut.result(timeout=1)

    def test_fail_propagates_to_all_futures(self):
        b = MicroBatcher(max_batch_size=8)
        futures = [b.submit(_img()) for _ in range(3)]
        batch = b.next_batch(timeout=1)
        batch.fail(RuntimeError("engine exploded"))
        for fut in futures:
            with pytest.raises(RuntimeError, match="exploded"):
                fut.result(timeout=1)

    def test_queue_waits_are_nonnegative(self):
        b = MicroBatcher()
        b.submit(_img())
        batch = b.next_batch(timeout=1)
        assert all(w >= 0 for w in batch.queue_waits())


class TestShutdown:
    def test_shutdown_fails_queued_requests(self):
        b = MicroBatcher()
        fut = b.submit(_img())
        b.shutdown()
        with pytest.raises(BatcherClosed):
            fut.result(timeout=1)

    def test_shutdown_wakes_blocked_consumer(self):
        b = MicroBatcher()
        out = {}

        def consume():
            out["batch"] = b.next_batch(timeout=5)

        t = threading.Thread(target=consume)
        t.start()
        time.sleep(0.05)
        b.shutdown()
        t.join(timeout=2)
        assert not t.is_alive()
        assert out["batch"] is None

    def test_shutdown_is_idempotent(self):
        b = MicroBatcher()
        b.shutdown()
        b.shutdown()
        assert b.closed


class TestTraceContexts:
    def test_contexts_ride_along_in_submit_order(self):
        from repro.obs.trace import TraceContext

        b = MicroBatcher(max_batch_size=8)
        c1 = TraceContext("a" * 16, 1, "main")
        c2 = TraceContext("b" * 16, 2, "main")
        b.submit(_img(), ctx=c1)
        b.submit(_img())          # untraced request in the middle
        b.submit(_img(), ctx=c2)
        batch = b.next_batch(timeout=1)
        assert batch.size == 3
        # Distinct contexts in submit order; None never listed.
        assert batch.trace_contexts() == [c1, c2]

    def test_duplicate_context_listed_once(self):
        from repro.obs.trace import TraceContext

        b = MicroBatcher(max_batch_size=8)
        ctx = TraceContext("c" * 16, 3, "main")
        b.submit(_img(), ctx=ctx)
        b.submit(_img(), ctx=ctx)
        batch = b.next_batch(timeout=1)
        assert batch.trace_contexts() == [ctx]

    def test_no_contexts_gives_empty_list(self):
        b = MicroBatcher(max_batch_size=2)
        b.submit(_img())
        assert b.next_batch(timeout=1).trace_contexts() == []

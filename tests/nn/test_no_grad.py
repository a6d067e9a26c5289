"""Tape-free mode (``no_grad``) and BatchNorm's eval kernel.

Inference runs every op under ``no_grad``: no backward closures, no
parents.  The mode is per thread, so one serving worker switching it off
never changes what another records.  BatchNorm's eval kernel replaces
the taped eval forward there and must stay ``==`` to it, also after its
constants' sources are rebound.
"""

import threading

import numpy as np
import pytest

from repro.nn import (
    SGD,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    ReLU,
    Sequential,
    Tensor,
    cross_entropy,
    is_grad_enabled,
    no_grad,
)


def _untaped(t: Tensor) -> bool:
    return not t.requires_grad and t._parents == () and t._backward is None


class TestNoGrad:
    def test_ops_wire_no_tape(self):
        a = Tensor(np.arange(6.0).reshape(2, 3) - 2.0, requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        with no_grad():
            outs = [
                a + 1.0, a * a, a - a, a / 2.0, a ** 2, -a, a @ b,
                a.relu(), a.sum(axis=0), a.mean(), a.reshape(3, 2),
                a.transpose(), a[0], a.exp(), a.abs(), a.clip(-1.0, 1.0),
                Tensor.concat([a, a], axis=0), (a * 2.0 + 1.0).relu().sum(),
            ]
        for out in outs:
            assert _untaped(out), out
        # The same op outside the block tapes as before.
        taped = a * 2.0
        assert taped.requires_grad and taped._parents

    def test_values_unchanged(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ref = ((a @ b).relu() * 3.0 - 1.0).data
        with no_grad():
            out = ((a @ b).relu() * 3.0 - 1.0).data
        assert np.array_equal(out, ref)

    def test_nesting_restores_mode(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_exception_restores_mode(self):
        with pytest.raises(RuntimeError, match="boom"):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()
        a = Tensor(np.ones(3), requires_grad=True)
        assert (a * 2.0).requires_grad

    def test_other_thread_still_records(self):
        a = Tensor(np.ones(3), requires_grad=True)
        seen: dict = {}

        def worker() -> None:
            seen["enabled"] = is_grad_enabled()
            seen["taped"] = (a * 2.0).requires_grad

        with no_grad():
            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
            assert _untaped(a * 2.0)
        assert seen == {"enabled": True, "taped": True}

    def test_thread_mode_does_not_leak_back(self):
        a = Tensor(np.ones(3), requires_grad=True)
        inside = threading.Event()
        release = threading.Event()

        def worker() -> None:
            with no_grad():
                inside.set()
                release.wait(timeout=10)

        t = threading.Thread(target=worker)
        t.start()
        try:
            assert inside.wait(timeout=10)
            assert is_grad_enabled()
            assert (a * 2.0).requires_grad
        finally:
            release.set()
            t.join(timeout=10)
        assert not t.is_alive()


def _random_bn(c: int, rng) -> BatchNorm2d:
    bn = BatchNorm2d(c)
    bn.running_mean = rng.normal(0.0, 1.0, c)
    bn.running_var = rng.uniform(0.1, 3.0, c)
    bn.gamma.data = rng.normal(1.0, 0.5, c)
    bn.beta.data = rng.normal(0.0, 0.5, c)
    return bn.eval()


def _taped_and_kernel(bn: BatchNorm2d, x: np.ndarray) -> tuple[Tensor, Tensor]:
    taped = bn(Tensor(x))
    with no_grad():
        fast = bn(Tensor(x))
    return taped, fast


class TestBatchNormEvalKernel:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_taped_forward(self, seed):
        rng = np.random.default_rng(seed)
        bn = _random_bn(6, rng)
        x = rng.normal(0.0, 2.0, size=(3, 6, 5, 4))
        taped, fast = _taped_and_kernel(bn, x)
        assert taped.requires_grad  # the reference really ran the tape
        assert _untaped(fast)
        assert fast.data.dtype == taped.data.dtype
        assert np.array_equal(fast.data, taped.data)

    @pytest.mark.parametrize("const_dtype", [np.float64, np.float32])
    def test_float32_input(self, const_dtype):
        rng = np.random.default_rng(1)
        bn = _random_bn(4, rng)
        for name in ("running_mean", "running_var"):
            setattr(bn, name, getattr(bn, name).astype(const_dtype))
        bn.gamma.data = bn.gamma.data.astype(const_dtype)
        bn.beta.data = bn.beta.data.astype(const_dtype)
        x = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
        taped, fast = _taped_and_kernel(bn, x)
        assert fast.data.dtype == taped.data.dtype
        assert np.array_equal(fast.data, taped.data)

    @pytest.mark.parametrize(
        "rebind",
        ["running_var", "running_mean", "gamma", "beta", "eps"],
    )
    def test_rebound_source_refreshes_constants(self, rebind):
        rng = np.random.default_rng(2)
        bn = _random_bn(5, rng)
        x = rng.normal(size=(2, 5, 4, 4))
        _, before = _taped_and_kernel(bn, x)
        if rebind == "running_var":
            bn.running_var = rng.uniform(0.1, 3.0, 5)
        elif rebind == "running_mean":
            bn.running_mean = rng.normal(size=5)
        elif rebind == "gamma":
            bn.gamma.data = rng.normal(1.0, 0.5, 5)
        elif rebind == "beta":
            bn.beta.data = rng.normal(size=5)
        else:
            bn.eps = 0.5
        taped, fast = _taped_and_kernel(bn, x)
        assert not np.array_equal(fast.data, before.data)
        assert np.array_equal(fast.data, taped.data)

    def test_constants_stay_out_of_state_dict(self):
        bn = _random_bn(3, np.random.default_rng(3))
        with no_grad():
            bn(Tensor(np.ones((1, 3, 2, 2))))
        assert set(bn.state_dict()) == {
            "gamma", "beta", "running_mean", "running_var",
        }

    def test_train_mode_under_no_grad_still_updates_stats(self):
        rng = np.random.default_rng(4)
        x = rng.normal(3.0, 1.0, size=(8, 2, 4, 4))
        bn_a, bn_b = BatchNorm2d(2), BatchNorm2d(2)
        ref = bn_a(Tensor(x))
        with no_grad():
            out = bn_b(Tensor(x))
        assert _untaped(out)
        assert np.array_equal(out.data, ref.data)
        assert np.array_equal(bn_b.running_mean, bn_a.running_mean)
        assert np.array_equal(bn_b.running_var, bn_a.running_var)


def _net(seed: int) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(2, 4, 3, padding=1, rng=rng),
        BatchNorm2d(4),
        ReLU(),
        GlobalAvgPool2d(),
        Linear(4, 3, rng=rng),
    )


def _train_steps(net: Sequential, x, y, steps: int, between=None) -> list:
    opt = SGD(net.parameters(), lr=0.1, momentum=0.9)
    grads = []
    for _ in range(steps):
        net.train()
        opt.zero_grad()
        loss = cross_entropy(net(Tensor(x)), y)
        loss.backward()
        grads.append([p.grad.copy() for p in net.parameters()])
        opt.step()
        if between is not None:
            between(net)
    return grads


def test_training_gradients_unchanged_outside_block():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 2, 5, 5))
    y = rng.integers(0, 3, size=6)

    def eval_without_tape(net: Sequential) -> None:
        net.eval()
        with no_grad():
            out = net(Tensor(x))
        assert _untaped(out)

    ref = _train_steps(_net(0), x, y, steps=3)
    got = _train_steps(_net(0), x, y, steps=3, between=eval_without_tape)
    for step_ref, step_got in zip(ref, got):
        for g_ref, g_got in zip(step_ref, step_got):
            assert np.array_equal(g_ref, g_got)

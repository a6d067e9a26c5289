"""Module system: layers, traversal, state dicts, train/eval semantics."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Tensor,
)
from repro.nn.layers import Identity, swap_modules


def small_net(rng=None):
    rng = rng or np.random.default_rng(0)
    return Sequential(
        Conv2d(3, 4, 3, padding=1, rng=rng),
        BatchNorm2d(4),
        ReLU(),
        GlobalAvgPool2d(),
        Linear(4, 2, rng=rng),
    )


class TestTraversal:
    def test_named_parameters_unique_and_complete(self):
        net = small_net()
        names = [n for n, _ in net.named_parameters()]
        assert len(names) == len(set(names))
        # conv w+b, bn gamma+beta, linear w+b
        assert len(names) == 6

    def test_named_modules_includes_nesting(self):
        net = Sequential(Sequential(ReLU()), Identity())
        kinds = [type(m).__name__ for _, m in net.named_modules()]
        assert kinds.count("Sequential") == 2
        assert "ReLU" in kinds and "Identity" in kinds

    def test_modules_of_type(self):
        net = small_net()
        assert len(net.modules_of_type(Conv2d)) == 1
        assert len(net.modules_of_type(Linear)) == 1


class TestTrainEval:
    def test_train_eval_propagates(self):
        net = small_net()
        net.eval()
        assert all(not m.training for _, m in net.named_modules())
        net.train()
        assert all(m.training for _, m in net.named_modules())

    def test_batchnorm_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(3)
        x = rng.normal(size=(8, 3, 4, 4)) * 3 + 1
        bn.train()
        for _ in range(20):
            bn(Tensor(x))
        bn.eval()
        out = bn(Tensor(x)).data
        # Normalised output should be near zero-mean/unit-var per channel.
        assert abs(out.mean()) < 0.3
        assert abs(out.std() - 1.0) < 0.3

    def test_batchnorm_eval_deterministic(self, rng):
        bn = BatchNorm2d(2)
        bn(Tensor(rng.normal(size=(4, 2, 3, 3))))
        bn.eval()
        x = rng.normal(size=(4, 2, 3, 3))
        np.testing.assert_array_equal(bn(Tensor(x)).data, bn(Tensor(x)).data)

    def test_dropout_identity_in_eval(self, rng):
        d = Dropout(0.9, rng=rng)
        d.eval()
        x = rng.normal(size=(10, 10))
        np.testing.assert_array_equal(d(Tensor(x)).data, x)

    def test_dropout_scales_in_train(self, rng):
        d = Dropout(0.5, rng=rng)
        x = np.ones((1000,))
        out = d(Tensor(x)).data
        # Inverted dropout keeps the expectation.
        assert abs(out.mean() - 1.0) < 0.15
        assert set(np.unique(out)).issubset({0.0, 2.0})


class TestStateDict:
    def test_roundtrip_restores_outputs(self, rng):
        net1 = small_net(np.random.default_rng(1))
        net2 = small_net(np.random.default_rng(2))
        x = rng.normal(size=(2, 3, 5, 5))
        net1.eval(), net2.eval()
        assert not np.allclose(net1(Tensor(x)).data, net2(Tensor(x)).data)
        net2.load_state_dict(net1.state_dict())
        np.testing.assert_allclose(net1(Tensor(x)).data, net2(Tensor(x)).data)

    def test_state_dict_contains_bn_buffers(self):
        net = small_net()
        keys = net.state_dict().keys()
        assert any("running_mean" in k for k in keys)
        assert any("running_var" in k for k in keys)

    def test_unknown_key_raises(self):
        net = small_net()
        with pytest.raises(KeyError):
            net.load_state_dict({"nope": np.zeros(1)})


class TestLayers:
    def test_conv_shapes(self, rng):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        out = conv(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)
        assert conv.macs_per_output == 27

    def test_conv_no_bias(self, rng):
        conv = Conv2d(3, 4, 1, bias=False, rng=rng)
        assert conv.bias is None
        assert len([p for p in conv.parameters()]) == 1

    def test_maxpool_small_input_is_identity(self, rng):
        pool = MaxPool2d(2)
        x = Tensor(rng.normal(size=(1, 2, 1, 1)))
        assert pool(x) is x

    def test_flatten(self, rng):
        out = Flatten()(Tensor(rng.normal(size=(4, 2, 3, 3))))
        assert out.shape == (4, 18)

    def test_sequential_indexing_and_append(self):
        seq = Sequential(ReLU())
        seq.append(Identity())
        assert isinstance(seq[0], ReLU)
        assert len(list(iter(seq))) == 2


class TestSwapModules:
    def test_swaps_nested_and_list_children(self):
        net = Sequential(Sequential(ReLU()), ReLU())

        swap_modules(net, lambda m: Identity() if isinstance(m, ReLU) else m)
        kinds = [type(m).__name__ for _, m in net.named_modules()]
        assert "ReLU" not in kinds
        assert kinds.count("Identity") == 2

    def test_does_not_recurse_into_replacements(self):
        net = Sequential(Sequential(ReLU()))
        calls = []

        def transform(m):
            calls.append(type(m).__name__)
            if isinstance(m, Sequential):
                return Identity()
            return m

        swap_modules(net, transform)
        # Inner Sequential replaced; its ReLU never visited.
        assert "ReLU" not in calls

"""Tape-free engine inference is ``==`` to the taped reference.

Every engine entry point runs the model under ``no_grad``.  Pinned here
on LeNet and ResNet-20: the planned run, the unplanned run and the taped
forward (``engine.model`` with grad mode on) give ``==`` logits and
equal per-channel sensitive counts, and the planned run calls every
conv's ``PlannedConvStep`` once.
"""

import numpy as np
import pytest

from repro.core.pipeline import QuantizedInferenceEngine
from repro.core.plan import PlannedConvStep
from repro.core.schemes import odq_scheme
from repro.models import build_model
from repro.nn import BatchNorm2d, Tensor, is_grad_enabled


def _engine(name: str):
    rng = np.random.default_rng(3)
    if name == "lenet":
        model = build_model("lenet", in_channels=1, image_size=28, rng=rng)
        shape = (1, 28, 28)
    else:
        model = build_model("resnet20", scale=0.25, rng=rng)
        shape = (3, 16, 16)
    # Non-trivial BatchNorm statistics, so BN's eval kernel is exercised.
    for bn in model.modules_of_type(BatchNorm2d):
        c = bn.num_features
        bn.running_mean = rng.normal(0.0, 0.3, c)
        bn.running_var = rng.uniform(0.5, 2.0, c)
        bn.gamma.data = rng.uniform(0.5, 1.5, c)
        bn.beta.data = rng.normal(0.0, 0.2, c)
    engine = QuantizedInferenceEngine(model, odq_scheme(0.3))
    engine.calibrate(rng.uniform(0.0, 1.0, size=(16, *shape)))
    x = rng.uniform(0.0, 1.0, size=(8, *shape))
    return engine, x


def _run(engine, fn, x):
    engine.reset_records()
    out = fn(x)
    counts = {name: rec.per_channel_sensitive for name, rec in engine.records.items()}
    return out, counts


def _taped(engine, x):
    assert is_grad_enabled()
    out = engine.model(Tensor(x))
    assert out.requires_grad  # the reference really recorded the tape
    return out.data


@pytest.mark.parametrize("name", ["lenet", "resnet20"])
def test_planned_unplanned_and_taped_agree(name, monkeypatch):
    engine, x = _engine(name)
    step_runs: list = []
    original = PlannedConvStep.run

    def spy(step, arr):
        step_runs.append(step.ex.info.name)
        return original(step, arr)

    monkeypatch.setattr(PlannedConvStep, "run", spy)
    try:
        for n in (1, 3, 8):
            xb = x[:n]
            engine.use_plan = True
            engine.infer(xb)  # compiles; the runs below hit the plan
            step_runs.clear()
            planned, planned_counts = _run(engine, engine.infer, xb)
            assert sorted(step_runs) == sorted(engine.executors)
            engine.use_plan = False
            unplanned, unplanned_counts = _run(engine, engine.infer, xb)
            taped, taped_counts = _run(engine, lambda b: _taped(engine, b), xb)
            assert np.array_equal(planned, taped)
            assert np.array_equal(unplanned, taped)
            for layer, ref in taped_counts.items():
                assert np.array_equal(planned_counts[layer], ref), layer
                assert np.array_equal(unplanned_counts[layer], ref), layer
        stats = engine.plan_stats()
        assert stats["hits"] >= 3
        assert 0 < engine.mean_sensitive_fraction() < 1
    finally:
        engine.restore()


def test_entry_points_leave_grad_mode_on():
    engine, x = _engine("lenet")
    try:
        engine.infer(x[:2])
        engine.forward(x[:2])
        engine.calibrate(x[:4])
        assert is_grad_enabled()
    finally:
        engine.restore()

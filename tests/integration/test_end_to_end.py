"""End-to-end reproduction invariants: train -> quantize -> simulate.

These tests assert the paper's qualitative claims (who wins, in which
direction) on a small trained network — the "shape" the reproduction
must preserve.
"""

import numpy as np
import pytest

from repro.accel.simulator import build_accelerator, workloads_from_records
from repro.core.pipeline import run_scheme
from repro.core.schemes import (
    drq_scheme,
    fp32_scheme,
    odq_scheme,
    static_scheme,
)


ODQ_THRESHOLD = 0.3


@pytest.fixture(scope="module")
def odq_resnet(trained_resnet, tiny_dataset):
    """ODQ-retrained twin (the paper's threshold-in-the-loop step)."""
    import copy

    from repro.core.odq_qat import finetune_odq

    model, _ = trained_resnet
    twin = copy.deepcopy(model)
    finetune_odq(
        twin,
        ODQ_THRESHOLD,
        tiny_dataset.x_train,
        tiny_dataset.y_train,
        tiny_dataset.x_test,
        tiny_dataset.y_test,
        epochs=4,
        lr=0.01,
        rng=np.random.default_rng(9),
    )
    twin.eval()
    return twin


@pytest.fixture(scope="module")
def scheme_results(trained_resnet, odq_resnet, tiny_dataset, calib_batch):
    """Run all Fig.-18/19 schemes once; share across the module's tests.

    FP/static/DRQ rows use the base model; the ODQ row uses the
    ODQ-retrained twin, matching the paper's per-scheme training.
    """
    model, _ = trained_resnet
    x_test, y_test = tiny_dataset.x_test, tiny_dataset.y_test
    results = {}
    for name, scheme, target in [
        ("fp32", fp32_scheme(), model),
        ("int16", static_scheme(16), model),
        ("int8", static_scheme(8), model),
        ("drq84", drq_scheme(8, 4), model),
        ("drq42", drq_scheme(4, 2), model),
        ("odq", odq_scheme(ODQ_THRESHOLD), odq_resnet),
    ]:
        acc, records = run_scheme(target, scheme, calib_batch, x_test, y_test)
        results[name] = (acc, records)
    return results


class TestAccuracyShape:
    def test_model_learned(self, trained_resnet):
        _, history = trained_resnet
        assert history.final_test_acc > 0.3  # far above 10% chance

    def test_int16_matches_fp32(self, scheme_results):
        assert abs(scheme_results["int16"][0] - scheme_results["fp32"][0]) <= 0.05

    def test_drq42_degrades_most(self, scheme_results):
        """The paper's key negative result: DRQ at 4-2 bits collapses."""
        accs = {k: v[0] for k, v in scheme_results.items()}
        assert accs["drq42"] <= accs["drq84"] + 0.02
        assert accs["drq42"] <= accs["fp32"]

    def test_odq_close_to_drq84(self, scheme_results):
        """Headline claim: ODQ 4-2 within a small drop of DRQ 8-4."""
        accs = {k: v[0] for k, v in scheme_results.items()}
        assert accs["odq"] >= accs["drq42"] - 0.05
        assert accs["odq"] >= accs["drq84"] - 0.15

    def test_odq_sensitive_fraction_in_paper_range(self, scheme_results):
        _, records = scheme_results["odq"]
        total = sum(r.outputs_total for r in records.values())
        sens = sum(r.sensitive_total for r in records.values())
        # On our substrate the accuracy-preserving threshold leaves more
        # outputs sensitive than the paper's 8-50% (see EXPERIMENTS.md);
        # the fraction must still be a genuine mix, not all-or-nothing.
        assert 0.05 < sens / total < 0.95


@pytest.fixture(scope="module")
def simulations(scheme_results):
    """Simulate each Fig.-19/21 accelerator once; share across the
    performance-shape tests (each simulation takes seconds)."""
    return {
        scheme: build_accelerator(accel).simulate(
            workloads_from_records(scheme_results[scheme][1])
        )
        for scheme, accel in [("int16", "INT16"), ("int8", "INT8"),
                              ("drq84", "DRQ"), ("odq", "ODQ")]
    }


class TestPerformanceShape:
    def test_execution_time_ordering(self, simulations):
        """Fig. 19: ODQ < DRQ < INT8 < INT16 execution time."""
        t = {k: s.total_cycles for k, s in simulations.items()}
        assert t["odq"] < t["drq84"] < t["int8"] < t["int16"]

    def test_odq_speedup_magnitudes(self, simulations):
        """Shape check on the headline numbers: large vs INT16 (paper
        97.8%), substantial vs DRQ (paper 67.6%)."""
        sims = simulations
        vs_int16 = 1 - sims["odq"].total_cycles / sims["int16"].total_cycles
        vs_drq = 1 - sims["odq"].total_cycles / sims["drq84"].total_cycles
        assert vs_int16 > 0.85
        assert vs_drq > 0.2

    def test_energy_ordering(self, simulations):
        """Fig. 21: same ordering for energy."""
        energies = {k: s.total_energy.total_pj for k, s in simulations.items()}
        assert energies["odq"] < energies["drq84"] < energies["int8"] < energies["int16"]


class TestMotivationShape:
    def test_drq_mixes_precision_in_sensitive_outputs(
        self, trained_resnet, tiny_dataset, calib_batch
    ):
        """Figs 2-3 exist because DRQ feeds low-precision inputs into
        sensitive outputs: verify the phenomenon on our network."""
        from repro.analysis.motivation import collect_motivation_stats

        model, _ = trained_resnet
        stats = collect_motivation_stats(
            model, calib_batch[:16], tiny_dataset.x_test[:16], output_threshold=0.15
        )
        assert len(stats) == 19
        # Some layer has sensitive outputs fed by >25% low-precision inputs.
        worst = max(s.lowprec_input_buckets[1:].sum() for s in stats)
        assert worst > 0.25
        # And DRQ's precision loss on sensitive outputs is nonzero.
        assert max(s.precision_loss_sensitive for s in stats) > 0

    def test_odq_precision_loss_below_drq(self, trained_resnet, odq_resnet, tiny_dataset, calib_batch):
        """Section 6.1: ODQ's per-layer precision loss beats DRQ's at the
        same low bit widths (4-2), using the ODQ-retrained model as the
        paper does."""
        from repro.analysis.motivation import collect_motivation_stats
        from repro.core.pipeline import QuantizedInferenceEngine
        from repro.core.stats import odq_precision_loss_for_layer

        model, _ = trained_resnet
        x = tiny_dataset.x_test[:16]
        drq_stats = collect_motivation_stats(
            model, calib_batch[:16], x, ODQ_THRESHOLD, hi_bits=4, lo_bits=2
        )

        engine = QuantizedInferenceEngine(odq_resnet, odq_scheme(ODQ_THRESHOLD))
        try:
            engine.capture_inputs = True
            engine.calibrate(calib_batch[:16])
            engine.forward(x)
            odq_losses = []
            for ex in engine.executors.values():
                xi = ex.record.extra["last_input"]
                o_fp = ex.reference_forward(xi)
                o_odq = ex.run(xi)
                odq_losses.append(odq_precision_loss_for_layer(o_fp, o_odq, ODQ_THRESHOLD))
        finally:
            engine.restore()
        drq_losses = [s.precision_loss_sensitive for s in drq_stats]
        assert np.mean(odq_losses) < np.mean(drq_losses)

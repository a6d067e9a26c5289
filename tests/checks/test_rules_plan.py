"""PLN5xx fixtures: positive and negative snippets."""

import textwrap

from repro.checks.engine import run_source


def scan(src, **kw):
    return run_source(textwrap.dedent(src), **kw)


def rules_of(findings):
    return [f.rule for f in findings]


class TestPLN502ExternalPlanStateMutation:
    def test_assignment_flagged(self):
        src = """
        def reset(engine):
            engine._active_plan = None
        """
        assert rules_of(scan(src)) == ["PLN502"]

    def test_mutating_method_flagged(self):
        src = """
        def nuke(engine):
            engine._plans.clear()
        """
        assert rules_of(scan(src)) == ["PLN502"]

    def test_del_flagged(self):
        src = """
        def evict(engine, key):
            del engine._plans[key]
        """
        assert rules_of(scan(src)) == ["PLN502"]

    def test_reads_are_clean(self):
        src = """
        def describe(engine):
            modes = sorted({p.mode for p in engine._plans.values()})
            return modes, engine._plans.get(("shape",))
        """
        assert scan(src) == []

    def test_pipeline_module_is_exempt(self):
        src = "self._plans.clear()\n"
        assert scan(src, path="src/repro/core/pipeline.py") == []


class TestPLN503ForwardShadowing:
    def test_attribute_assignment_flagged(self):
        src = """
        def hack(module, fn):
            module.forward = fn
        """
        assert rules_of(scan(src)) == ["PLN503"]

    def test_dict_assignment_flagged(self):
        src = """
        def hack(module, fn):
            module.__dict__["forward"] = fn
        """
        assert rules_of(scan(src)) == ["PLN503"]

    def test_class_forward_def_is_clean(self):
        src = """
        class Layer:
            def forward(self, x):
                return x
        """
        assert scan(src) == []

    def test_plan_tracer_is_exempt(self):
        src = 'module.__dict__["forward"] = traced\n'
        assert scan(src, path="src/repro/core/plan.py") == []


class TestPLN504InplaceFrozenArrayWrite:
    def test_augmented_assignment_flagged(self):
        src = """
        def sgd_step(p, lr):
            p.data -= lr * p.grad
        """
        assert rules_of(scan(src)) == ["PLN504"]

    def test_subscript_store_flagged(self):
        src = """
        def reset(bn, conv):
            bn.running_mean[:] = 0.0
            conv.weight.data[0] = 1.0
        """
        assert rules_of(scan(src)) == ["PLN504", "PLN504"]

    def test_rebinding_is_clean(self):
        src = """
        def sgd_step(p, bn, lr):
            p.data = p.data - lr * p.grad
            bn.running_var = 0.9 * bn.running_var + 0.1
            x = p.data[0]
        """
        assert scan(src) == []

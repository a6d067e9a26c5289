"""TraceContext propagation: minting and activation."""

from __future__ import annotations

import pytest

from repro.obs import trace
from repro.obs.trace import NOOP_SPAN, TraceContext, Tracer


@pytest.fixture()
def tracer() -> Tracer:
    return Tracer(enabled=True)


class TestTraceContext:
    def test_parent_ref_is_lane_qualified(self):
        ctx = TraceContext("abcd1234abcd1234", 7, "replica-3")
        assert ctx.parent_ref() == "replica-3:7"

    def test_new_trace_ids_are_16_hex_and_distinct(self):
        a, b = trace.new_trace_id(), trace.new_trace_id()
        assert len(a) == 16 and len(b) == 16
        int(a, 16)  # must be valid hex
        assert a != b


class TestActivation:
    def test_active_context_tags_spans(self, tracer):
        ctx = TraceContext("t1", 5, "main")
        with tracer.activate(ctx):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["root"].attrs["trace_id"] == "t1"
        # Thread-root span parents to the remote span the ctx names.
        assert spans["root"].attrs["parent_ref"] == "main:5"
        # Non-root spans keep local parentage — no cross-process ref.
        assert spans["child"].attrs["trace_id"] == "t1"
        assert "parent_ref" not in spans["child"].attrs
        assert spans["child"].parent_id == spans["root"].span_id

    def test_activate_none_is_a_noop(self, tracer):
        with tracer.activate(None):
            assert tracer.current_context() is None
            with tracer.span("s"):
                pass
        (s,) = tracer.spans()
        assert "trace_id" not in s.attrs

    def test_contexts_nest_and_restore(self, tracer):
        outer = TraceContext("t1", 1, "main")
        inner = TraceContext("t2", 2, "main")
        assert tracer.current_context() is None
        with tracer.activate(outer):
            with tracer.activate(inner):
                assert tracer.current_context() is inner
            assert tracer.current_context() is outer
        assert tracer.current_context() is None

    def test_context_restored_on_exception(self, tracer):
        ctx = TraceContext("t1", 1, "main")
        with pytest.raises(RuntimeError):
            with tracer.activate(ctx):
                raise RuntimeError("boom")
        assert tracer.current_context() is None


class TestRequestContext:
    def test_disabled_yields_noop_and_none(self):
        assert not trace.enabled()
        with trace.request_context("serve.predict") as (sp, ctx):
            assert sp is NOOP_SPAN
            assert ctx is None

    def test_mints_root_and_activates(self):
        with trace.get_tracer().collect():
            with trace.request_context("serve.predict", batch=2) as (sp, ctx):
                assert ctx.span_id == sp.span_id
                assert ctx.origin == "main"
                assert trace.current_context() is ctx
                with trace.span("inner"):
                    pass
            spans = {s.name: s for s in trace.spans()}
            root = spans["serve.predict"]
            assert root.attrs["trace_root"] is True
            assert root.attrs["trace_id"] == ctx.trace_id
            assert root.attrs["batch"] == 2
            assert spans["inner"].attrs["trace_id"] == ctx.trace_id
        assert trace.current_context() is None

    def test_each_request_gets_a_fresh_trace_id(self):
        with trace.get_tracer().collect():
            with trace.request_context("r1") as (_sp, c1):
                pass
            with trace.request_context("r2") as (_sp, c2):
                pass
            assert c1.trace_id != c2.trace_id

"""Unit tests for the call pipeline: CallContext, composition, built-ins."""

import pytest

from repro.clarens.errors import AuthorizationError, RemoteFault
from repro.clarens.middleware import (
    CallContext,
    TracingMiddleware,
    build_pipeline,
)
from repro.clarens.server import ClarensHost
from repro.clarens.telemetry import CallMetrics, TraceLog, stats_snapshot
from repro.observability.metrics import MetricsRegistry


def _tracing(log):
    """A tracing middleware over *log* and a fresh registry."""
    metrics = MetricsRegistry()
    middleware = TracingMiddleware(log, CallMetrics(metrics))
    return middleware, metrics


class TestCallContext:
    def test_defaults(self):
        ctx = CallContext("svc.m", [1, 2])
        assert ctx.method_path == "svc.m"
        assert ctx.params == [1, 2]
        assert ctx.principal is None
        assert ctx.outcome == ""
        assert ctx.transport == "inproc"

    def test_meta_created_lazily(self):
        ctx = CallContext("svc.m", [])
        assert ctx.metadata is None
        ctx.meta()["k"] = "v"
        assert ctx.metadata == {"k": "v"}
        assert ctx.meta() is ctx.metadata


class TestBuildPipeline:
    def test_outermost_first_ordering(self):
        order = []

        def mw(tag):
            def middleware(ctx, call_next):
                order.append(f"{tag}:in")
                result = call_next(ctx)
                order.append(f"{tag}:out")
                return result

            return middleware

        handler = build_pipeline([mw("a"), mw("b")], lambda ctx: "result")
        assert handler(CallContext("x.y", [])) == "result"
        assert order == ["a:in", "b:in", "b:out", "a:out"]

    def test_empty_chain_is_just_the_terminal(self):
        handler = build_pipeline([], lambda ctx: 42)
        assert handler(CallContext("x.y", [])) == 42

    def test_middleware_can_short_circuit(self):
        def gate(ctx, call_next):
            raise AuthorizationError("closed")

        invoked = []
        handler = build_pipeline([gate], lambda ctx: invoked.append(1))
        with pytest.raises(AuthorizationError):
            handler(CallContext("x.y", []))
        assert not invoked


class TestMetricsMiddleware:
    """The tracing middleware's metrics side: counts, faults, latency."""

    def test_records_latency_and_outcome(self):
        middleware, metrics = _tracing(TraceLog())
        handler = build_pipeline([middleware], lambda ctx: "ok")
        ctx = CallContext("a.b", [])
        handler(ctx)
        summary = stats_snapshot(metrics)["latency_ms"]["a.b"]
        assert summary["count"] == 1
        assert summary["faults"] == 0
        assert summary["mean_ms"] >= 0.0
        # One timing feeds both sinks.
        assert summary["mean_ms"] == ctx.duration_ms

    def test_counts_faults(self):
        middleware, metrics = _tracing(TraceLog())

        def boom(ctx):
            raise RemoteFault("no")

        handler = build_pipeline([middleware], boom)
        with pytest.raises(RemoteFault):
            handler(CallContext("a.b", []))
        snap = stats_snapshot(metrics)
        assert snap["faults"] == 1
        assert snap["latency_ms"]["a.b"]["faults"] == 1


class TestTracingMiddleware:
    def test_stamps_duration_and_records(self):
        log = TraceLog()
        handler = build_pipeline([_tracing(log)[0]], lambda ctx: "ok")
        ctx = CallContext("a.b", [], trace_id="t-1", started=12.5)
        handler(ctx)
        assert ctx.outcome == "ok"
        assert ctx.duration_ms >= 0.0
        (record,) = log.snapshot()
        assert record.trace_id == "t-1"
        assert record.started == 12.5
        assert record.outcome == "ok"

    def test_fault_recorded_with_code(self):
        log = TraceLog()

        def boom(ctx):
            raise AuthorizationError("denied")

        handler = build_pipeline([_tracing(log)[0]], boom)
        with pytest.raises(AuthorizationError):
            handler(CallContext("a.b", [], trace_id="t-2"))
        (record,) = log.snapshot()
        assert record.outcome == "fault"
        assert record.code == 403
        assert "denied" in record.error


class TestHostIntegration:
    def test_default_chain_is_rebuilt_on_add_middleware(self):
        host = ClarensHost("h")
        calls = []

        @host.add_middleware
        def spy(ctx, call_next):
            calls.append(ctx.trace_id)
            return call_next(ctx)

        host.dispatch("system.ping", [], "", trace_id="t-3")
        assert calls == ["t-3"]

    def test_context_entry_cached_for_terminal_invoker(self):
        host = ClarensHost("h")
        entries = []

        def spy(ctx, call_next):
            entries.append(ctx.entry)
            return call_next(ctx)

        host.add_middleware(spy)
        host.dispatch("system.ping", [], "")
        # ACL middleware runs before user middlewares and caches the entry.
        assert entries[0] is not None
        assert entries[0].name == "ping"

"""Unit tests for the telemetry sinks: call metrics, percentiles, trace ring."""

import threading

import pytest

from repro.clarens.telemetry import (
    RPC_LATENCY,
    CallMetrics,
    TraceLog,
    TraceRecord,
    WorkerPoolMetrics,
    new_trace_id,
    percentile,
    stats_snapshot,
)
from repro.observability.metrics import MetricsRegistry


class TestTraceIds:
    def test_unique_and_nonempty(self):
        ids = {new_trace_id() for _ in range(1000)}
        assert len(ids) == 1000
        assert all(ids)

    def test_no_bang_so_it_fits_the_wire_token(self):
        assert "!" not in new_trace_id()


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_single_sample(self):
        assert percentile([3.0], 0) == 3.0
        assert percentile([3.0], 50) == 3.0
        assert percentile([3.0], 100) == 3.0

    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 50) == 50
        assert percentile(samples, 95) == 95
        assert percentile(samples, 99) == 99

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 100) == 5.0


def _stats():
    """A fresh registry with the host's call instruments on it."""
    metrics = MetricsRegistry()
    return metrics, CallMetrics(metrics)


class TestCallStats:
    """The call instruments and their ``system.stats`` view."""

    def test_counters_keep_historical_meaning(self):
        metrics, calls = _stats()
        calls.record("a.b", True, 1.0)
        calls.record("a.b", False, 2.0)
        snap = stats_snapshot(metrics)
        assert snap["calls"] == 2
        assert snap["faults"] == 1
        assert snap["per_method"] == {"a.b": 2}

    def test_duration_optional(self):
        """Answers that did not execute carry no duration and stay untimed."""
        metrics, calls = _stats()
        calls.record("a.b", True, served_from="cache")
        snap = stats_snapshot(metrics)
        assert snap["per_method"] == {"a.b": 1}
        assert snap["served"] == {"a.b": {"cache": 1}}
        assert "a.b" not in snap["latency_ms"]

    def test_snapshot_shape(self):
        metrics, calls = _stats()
        for i in range(20):
            calls.record("a.b", True, 1.0 * (i + 1))
        snap = stats_snapshot(metrics)
        assert snap["calls"] == 20
        summary = snap["latency_ms"]["a.b"]
        assert summary["count"] == 20
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
        assert summary["max_ms"] == pytest.approx(20.0)
        assert list(summary) == [
            "count", "faults", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms",
        ]

    def test_reservoir_caps_memory_but_keeps_counting(self):
        metrics = MetricsRegistry()
        metrics.histogram(RPC_LATENCY, reservoir_cap=8)
        calls = CallMetrics(metrics)
        for _ in range(100):
            calls.record("a.b", True, 1.0)
        summary = stats_snapshot(metrics)["latency_ms"]["a.b"]
        assert summary["count"] == 100
        (series,) = metrics.get(RPC_LATENCY)._series.values()
        assert len(series.reservoir) == 8

    def test_methods_listing(self):
        metrics, calls = _stats()
        calls.record("b.x", True, 1.0)
        calls.record("a.y", True, 1.0)
        assert list(stats_snapshot(metrics)["latency_ms"]) == ["a.y", "b.x"]

    def test_record_is_thread_safe(self):
        """16 threads hammer one CallMetrics; no update may be lost."""
        metrics, calls = _stats()
        n_threads, per_thread = 16, 500

        def hammer():
            for _ in range(per_thread):
                calls.record("hot.path", True, 0.1)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = stats_snapshot(metrics)
        assert snap["calls"] == n_threads * per_thread
        assert snap["per_method"]["hot.path"] == n_threads * per_thread
        assert snap["latency_ms"]["hot.path"]["count"] == n_threads * per_thread


class TestWorkerPoolMetrics:
    """The aio worker-pool instruments and their ``worker_pools`` view."""

    def test_pool_listed_at_zero_before_any_call(self):
        metrics, _ = _stats()
        WorkerPoolMetrics(metrics, "async:1")
        assert stats_snapshot(metrics)["worker_pools"] == {
            "async:1": {
                "submitted": 0, "completed": 0, "queue_depth": 0,
                "max_queue_depth": 0, "batches": 0, "max_batch": 0,
                "stages": {},
            }
        }

    def test_queue_depth_high_water_and_stages(self):
        metrics, _ = _stats()
        pool = WorkerPoolMetrics(metrics, "async:1")
        for _ in range(3):
            pool.on_submit()
        pool.on_batch(3)
        for _ in range(3):
            pool.on_start(0.002)
            pool.record_stage("dispatch", 0.001, ok=False)
            pool.on_complete()
        snap = stats_snapshot(metrics)["worker_pools"]["async:1"]
        assert (snap["submitted"], snap["completed"]) == (3, 3)
        assert (snap["queue_depth"], snap["max_queue_depth"]) == (0, 3)
        assert (snap["batches"], snap["max_batch"]) == (1, 3)
        assert list(snap["stages"]) == ["queue_wait", "dispatch"]
        assert snap["stages"]["queue_wait"]["mean_ms"] == pytest.approx(2.0)
        assert snap["stages"]["queue_wait"]["faults"] == 0
        assert snap["stages"]["dispatch"]["faults"] == 3

    def test_no_worker_pools_key_without_a_pool(self):
        metrics, _ = _stats()
        assert "worker_pools" not in stats_snapshot(metrics)


def _record(i, trace="t"):
    return TraceRecord(
        trace_id=trace, method=f"m.{i}", transport="inproc", principal="u",
        started=float(i), duration_ms=1.0, outcome="ok",
    )


class TestTraceLog:
    def test_capacity_bounds_the_ring(self):
        log = TraceLog(capacity=4)
        for i in range(10):
            log.append(_record(i))
        records = log.snapshot()
        assert len(log) == 4
        assert [r.method for r in records] == ["m.6", "m.7", "m.8", "m.9"]

    def test_limit_keeps_newest(self):
        log = TraceLog()
        for i in range(5):
            log.append(_record(i))
        assert [r.method for r in log.snapshot(limit=2)] == ["m.3", "m.4"]

    def test_filter_by_trace_id(self):
        log = TraceLog()
        log.append(_record(0, trace="a"))
        log.append(_record(1, trace="b"))
        log.append(_record(2, trace="a"))
        assert [r.method for r in log.snapshot(trace_id="a")] == ["m.0", "m.2"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=0)

    def test_record_to_wire_is_a_plain_dict(self):
        wire = _record(1).to_wire()
        assert wire["method"] == "m.1"
        assert wire["outcome"] == "ok"
        assert set(wire) == {
            "trace_id", "method", "transport", "principal", "started",
            "duration_ms", "outcome", "code", "error", "served_from",
        }

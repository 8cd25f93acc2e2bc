"""Telemetry for the Clarens call pipeline: metrics, latency, trace records.

The paper's §7 performance study measures Clarens call latency from the
outside only; this module gives the host its own instruments so every
service inherits them for free:

- :class:`CallMetrics` / :class:`WorkerPoolMetrics` — record calls and
  aio worker-bridge stages into the host's wall-clock
  :class:`~repro.observability.metrics.MetricsRegistry` (``host.metrics``);
- :func:`stats_snapshot` — the ``system.stats`` view over those
  instruments (counters plus p50/p95/p99 latency summaries);
- :class:`TraceRecord` / :class:`TraceLog` — a bounded in-memory ring
  buffer of finished calls, queryable via ``system.recent_calls``;
- :func:`new_trace_id` — cheap process-unique trace ids that propagate
  across transports and ``system.multicall`` sub-calls.

Everything here is transport-neutral; the tracing middleware in
:mod:`repro.clarens.middleware` and the aio worker bridge feed these
sinks.
"""

from __future__ import annotations

import itertools
import secrets as _secrets
import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # the registry's package imports this module's package
    from repro.observability.metrics import MetricsRegistry

# ----------------------------------------------------------------------
# trace ids
# ----------------------------------------------------------------------
# A random per-process prefix plus a counter: unique enough to correlate
# calls across hosts, and ~10x cheaper than uuid4 on the hot path.
_TRACE_PREFIX = _secrets.token_hex(4)
_TRACE_COUNTER = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id (``<random-prefix>-<counter>``)."""
    return f"{_TRACE_PREFIX}-{next(_TRACE_COUNTER):x}"


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) of *samples* by nearest-rank.

    Raises ValueError on an empty sample set.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(samples)
    if q <= 0:
        return ordered[0]
    if q >= 100:
        return ordered[-1]
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[int(rank) - 1]


class LatencyReservoir:
    """Fixed-capacity sample store: fills, then overwrites cyclically.

    The sliding window of recent values behind every
    :class:`~repro.observability.metrics.Histogram`.  Not thread-safe on
    its own — owners hold their own lock.
    """

    __slots__ = ("cap", "samples", "_next")

    def __init__(self, cap: int = 512) -> None:
        if cap < 1:
            raise ValueError("reservoir capacity must be positive")
        self.cap = cap
        self.samples: List[float] = []
        self._next = 0

    def add(self, value: float) -> None:
        if len(self.samples) < self.cap:
            self.samples.append(value)
        else:  # overwrite cyclically: a sliding window of recent values
            self.samples[self._next] = value
            self._next = (self._next + 1) % self.cap

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the current window."""
        return percentile(self.samples, q)

    def __len__(self) -> int:
        return len(self.samples)


#: The host's call-pipeline instruments (``host.metrics``).  Latencies
#: are wall-clock milliseconds; only executed calls are timed.
RPC_CALLS = "gae_rpc_method_calls_total"
RPC_FAULTS = "gae_rpc_method_faults_total"
RPC_SERVED = "gae_rpc_served_total"
RPC_TRANSPORT_CALLS = "gae_rpc_transport_calls_total"
RPC_LATENCY = "gae_rpc_latency_ms"

#: Stages of the async server's worker bridge, in call order.  Every
#: stage but ``reply_flush`` is timed on the worker thread; the flush is
#: timed on the event loop (one sample per reply batch).
WORKER_STAGES = ("queue_wait", "decode", "dispatch", "encode", "reply_flush")

#: The aio worker-pool instruments, every series labelled ``pool``.
POOL_SUBMITTED = "gae_aio_worker_submitted_total"
POOL_COMPLETED = "gae_aio_worker_completed_total"
POOL_BATCHES = "gae_aio_worker_batches_total"
POOL_MAX_BATCH = "gae_aio_worker_batch_max"
POOL_QUEUE_DEPTH = "gae_aio_worker_queue_depth"
POOL_QUEUE_DEPTH_MAX = "gae_aio_worker_queue_depth_max"
POOL_STAGE = "gae_aio_worker_stage_ms"
POOL_STAGE_FAULTS = "gae_aio_worker_stage_faults_total"


class CallMetrics:
    """Records finished calls into the host's :class:`MetricsRegistry`.

    Holds instrument handles only — every count and sample lives in the
    registry, whose locks make recording safe from the threaded servers'
    concurrent request threads.  ``served_from`` separates executed
    calls (``"execute"``) from responses answered by the read cache
    (``"cache"``) or multicall deduplication (``"coalesced"``); only
    executed calls are timed, so sub-microsecond cached answers cannot
    drag the percentiles toward zero.  ``transport``, when non-empty,
    feeds the per-transport counter (the async server reports one label
    per negotiated codec, e.g. ``"async+json"``).
    """

    def __init__(self, metrics: "MetricsRegistry") -> None:
        self.calls = metrics.counter(RPC_CALLS, "Per-method call counts.")
        self.faults = metrics.counter(RPC_FAULTS, "Per-method calls that ended in a fault.")
        self.served = metrics.counter(
            RPC_SERVED, "Per-method calls answered without executing, by source."
        )
        self.transports = metrics.counter(RPC_TRANSPORT_CALLS, "Calls by arriving transport.")
        self.latency = metrics.histogram(
            RPC_LATENCY, "Per-method wall-clock latency of executed calls (ms)."
        )
        metrics.gauge(
            "gae_rpc_calls_total", "Calls dispatched by the Clarens host.", fn=self.calls.total
        )
        metrics.gauge(
            "gae_rpc_faults_total", "Calls that ended in a fault.", fn=self.faults.total
        )
        # method -> pre-bound (calls, latency); transport -> bound counter.
        # Races only ever bind the same labelset twice, which is harmless.
        self._methods: Dict[str, Tuple[Any, Any]] = {}
        self._transports: Dict[str, Any] = {}

    def record(
        self,
        method_path: str,
        ok: bool,
        duration_ms: float = 0.0,
        served_from: str = "execute",
        transport: str = "",
    ) -> None:
        """Record one finished call."""
        bound = self._methods.get(method_path)
        if bound is None:
            bound = self._methods[method_path] = (
                self.calls.bind(method=method_path),
                self.latency.bind(method=method_path),
            )
        bound[0].inc()
        if transport:
            per_transport = self._transports.get(transport)
            if per_transport is None:
                per_transport = self._transports[transport] = self.transports.bind(
                    transport=transport
                )
            per_transport.inc()
        if not ok:
            self.faults.inc(method=method_path)
        if served_from == "execute":
            bound[1].observe(duration_ms)
        else:
            self.served.inc(method=method_path, source=served_from)


class WorkerPoolMetrics:
    """Queue depth, batching and stage timings of one aio worker pool.

    Every instrument is labelled ``pool=<label>`` in the host registry;
    the series are created at zero on construction, so a started pool
    shows up in ``system.stats`` and ``/metrics`` before its first call.
    """

    def __init__(self, metrics: "MetricsRegistry", pool: str) -> None:
        self.pool = pool
        self._submitted = metrics.counter(
            POOL_SUBMITTED, "Requests entering the aio worker queue."
        ).bind(pool=pool)
        self._completed = metrics.counter(
            POOL_COMPLETED, "Requests the aio workers finished."
        ).bind(pool=pool)
        self._batches = metrics.counter(
            POOL_BATCHES, "Queue drains by the aio workers."
        ).bind(pool=pool)
        self._max_batch = metrics.gauge(
            POOL_MAX_BATCH, "Largest request batch one aio worker drained."
        ).bind(pool=pool)
        self._depth = metrics.gauge(
            POOL_QUEUE_DEPTH, "Requests waiting in the aio worker queue."
        ).bind(pool=pool)
        self._depth_max = metrics.gauge(
            POOL_QUEUE_DEPTH_MAX, "High-water mark of the aio worker queue."
        ).bind(pool=pool)
        stages = metrics.histogram(POOL_STAGE, "Aio worker-bridge stage latency (ms).")
        faults = metrics.counter(POOL_STAGE_FAULTS, "Aio worker-bridge stages that faulted.")
        self._stages = {stage: stages.bind(pool=pool, stage=stage) for stage in WORKER_STAGES}
        self._dispatch_faults = faults.bind(pool=pool, stage="dispatch")
        for counter in (self._submitted, self._completed, self._batches):
            counter.inc(0.0)
        for gauge in (self._max_batch, self._depth, self._depth_max):
            gauge.set(0.0)

    def on_submit(self) -> None:
        """A request entered the worker queue (loop side)."""
        self._submitted.inc()
        self._depth_max.set_max(self._depth.inc())

    def on_start(self, queue_wait_s: float) -> None:
        """A worker picked the request up after *queue_wait_s* seconds."""
        self._depth.inc(-1.0)
        self._stages["queue_wait"].observe(queue_wait_s * 1000.0)

    def on_batch(self, size: int) -> None:
        self._batches.inc()
        self._max_batch.set_max(size)

    def record_stage(self, stage: str, duration_s: float, ok: bool = True) -> None:
        """Time one pipeline stage (``decode``/``dispatch``/``encode``/
        ``reply_flush``); only ``dispatch`` can fault."""
        self._stages[stage].observe(duration_s * 1000.0)
        if not ok:
            self._dispatch_faults.inc()

    def on_complete(self) -> None:
        self._completed.inc()


def _by_label(metrics: "MetricsRegistry", name: str, label: str) -> Dict[str, Any]:
    """One instrument's series keyed by the value of its *label*."""
    return {dict(k)[label]: v for k, v in sorted(metrics.get(name).series().items())}


def _latency_summary(summary: Dict[str, float], faults: float) -> Dict[str, Any]:
    count = int(summary["count"])
    return {
        "count": count,
        "faults": int(faults),
        "mean_ms": summary["sum"] / count,
        "p50_ms": summary["p50"],
        "p95_ms": summary["p95"],
        "p99_ms": summary["p99"],
        "max_ms": summary["max"],
    }


def stats_snapshot(metrics: "MetricsRegistry") -> Dict[str, Any]:
    """The ``system.stats`` view over a host registry's call instruments.

    ``calls``/``faults`` totals, ``per_method`` and ``per_transport``
    counts, ``latency_ms`` per executed method (``count``, ``faults``,
    ``mean_ms``, ``p50_ms``, ``p95_ms``, ``p99_ms``, ``max_ms``) and
    ``served`` (method -> source -> count for non-executed answers);
    plus ``worker_pools`` once an aio server has started.
    """
    per_method = {m: int(v) for m, v in _by_label(metrics, RPC_CALLS, "method").items()}
    faults = _by_label(metrics, RPC_FAULTS, "method")
    served: Dict[str, Dict[str, int]] = {}
    for key, value in sorted(metrics.get(RPC_SERVED).series().items()):
        labels = dict(key)
        served.setdefault(labels["method"], {})[labels["source"]] = int(value)
    snap: Dict[str, Any] = {
        "calls": sum(per_method.values()),
        "faults": int(sum(faults.values())),
        "per_method": per_method,
        "per_transport": {
            t: int(v) for t, v in _by_label(metrics, RPC_TRANSPORT_CALLS, "transport").items()
        },
        "latency_ms": {
            m: _latency_summary(s, faults.get(m, 0.0))
            for m, s in _by_label(metrics, RPC_LATENCY, "method").items()
        },
        "served": served,
    }
    if metrics.get(POOL_SUBMITTED) is not None:
        snap["worker_pools"] = _worker_pools(metrics)
    return snap


#: ``worker_pools`` snapshot field -> instrument, in snapshot order.
_POOL_FIELDS = (
    ("submitted", POOL_SUBMITTED),
    ("completed", POOL_COMPLETED),
    ("queue_depth", POOL_QUEUE_DEPTH),
    ("max_queue_depth", POOL_QUEUE_DEPTH_MAX),
    ("batches", POOL_BATCHES),
    ("max_batch", POOL_MAX_BATCH),
)


def _worker_pools(metrics: "MetricsRegistry") -> Dict[str, Any]:
    pools: Dict[str, Dict[str, Any]] = {}
    for field, name in _POOL_FIELDS:
        for pool, value in _by_label(metrics, name, "pool").items():
            pools.setdefault(pool, {})[field] = int(value)
    for snap in pools.values():
        snap["stages"] = {}
    faults = metrics.get(POOL_STAGE_FAULTS).series()
    order = {stage: i for i, stage in enumerate(WORKER_STAGES)}
    series = metrics.get(POOL_STAGE).series().items()
    for key, summary in sorted(series, key=lambda kv: order[dict(kv[0])["stage"]]):
        labels = dict(key)
        pools[labels["pool"]]["stages"][labels["stage"]] = _latency_summary(
            summary, faults.get(key, 0.0)
        )
    return dict(sorted(pools.items()))


@dataclass(frozen=True)
class TraceRecord:
    """One finished call as kept in the trace ring buffer."""

    trace_id: str
    method: str
    transport: str
    principal: str
    started: float          # host time_source timestamp (sim or wall clock)
    duration_ms: float
    outcome: str            # "ok" | "fault" | "error"
    code: int = 0           # fault code when outcome != "ok"
    error: str = ""
    served_from: str = "execute"  # "execute" | "cache" | "coalesced"

    def to_wire(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "method": self.method,
            "transport": self.transport,
            "principal": self.principal,
            "started": self.started,
            "duration_ms": self.duration_ms,
            "outcome": self.outcome,
            "code": self.code,
            "error": self.error,
            "served_from": self.served_from,
        }


class TraceLog:
    """Bounded, thread-safe ring buffer of :class:`TraceRecord`."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self._records: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def append(self, record: TraceRecord) -> None:
        with self._lock:
            self._records.append(record)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def snapshot(
        self, limit: Optional[int] = None, trace_id: Optional[str] = None
    ) -> List[TraceRecord]:
        """Records in chronological order, optionally filtered/limited.

        *limit* keeps the **newest** N records after filtering.
        """
        with self._lock:
            records = list(self._records)
        if trace_id is not None:
            records = [r for r in records if r.trace_id == trace_id]
        if limit is not None and limit >= 0:
            records = records[len(records) - min(limit, len(records)):]
        return records

"""In-memory span recording around calls into the system's layers.

The traced run installs :func:`install_layer_spans` before it builds
anything: each listed public function (a class attribute or a module
function) is replaced by a wrapper that records one span per call —
name, start, end, parent span and operation id — into a
:class:`SpanRecorder`.  Nothing under ``src/`` changes; the wrappers are
removed again by :meth:`SpanRecorder.uninstall`.

A layer's *self time* is its span's duration minus the time its direct
child spans cover.  Spans opened on a server worker thread (the framed
async transport answers on its own threads) have no parent on their own
thread; they are attached to the innermost span open on the client
thread, which is exact for the benchmark's single closed-loop client:
the client is blocked in that span until the answer arrives.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

# (module, class or None, attribute, span name).  Class attributes are
# patched on the class, so every instance built afterwards — and every
# bound method a registry captures — goes through the wrapper.
LAYER_FUNCTIONS: Tuple[Tuple[str, Any, str, str], ...] = (
    # clarens: transport, codecs, server middleware
    ("repro.clarens.transport", "AsyncSocketTransport", "call", "clarens.transport.call"),
    ("repro.clarens.codecs.json", "CompactJsonCodec", "encode_request", "clarens.codecs.encode"),
    ("repro.clarens.codecs.json", "CompactJsonCodec", "encode_response", "clarens.codecs.encode"),
    ("repro.clarens.codecs.json", "CompactJsonCodec", "encode_fault", "clarens.codecs.encode"),
    ("repro.clarens.codecs.json", "CompactJsonCodec", "decode_request", "clarens.codecs.decode"),
    ("repro.clarens.codecs.json", "CompactJsonCodec", "decode_response", "clarens.codecs.decode"),
    ("repro.clarens.codecs.xmlrpc", "XmlRpcCodec", "encode_request", "clarens.codecs.encode"),
    ("repro.clarens.codecs.xmlrpc", "XmlRpcCodec", "encode_response", "clarens.codecs.encode"),
    ("repro.clarens.codecs.xmlrpc", "XmlRpcCodec", "encode_fault", "clarens.codecs.encode"),
    ("repro.clarens.codecs.xmlrpc", "XmlRpcCodec", "decode_request", "clarens.codecs.decode"),
    ("repro.clarens.codecs.xmlrpc", "XmlRpcCodec", "decode_response", "clarens.codecs.decode"),
    ("repro.clarens.server", "ClarensHost", "dispatch", "clarens.server.dispatch"),
    # gridsim: Condor pools, the Sphinx scheduler, the simulation clock
    ("repro.gridsim.condor", "CondorPool", "queue_position", "gridsim.condor.queue_position"),
    ("repro.gridsim.condor", "CondorPool", "running_snapshot", "gridsim.condor.running_snapshot"),
    ("repro.gridsim.condor", "CondorPool", "tasks_ahead_of", "gridsim.condor.tasks_ahead_of"),
    ("repro.gridsim.condor", "CondorPool", "set_priority", "gridsim.condor.set_priority"),
    ("repro.gridsim.condor", "CondorPool", "submit", "gridsim.condor.submit"),
    ("repro.gridsim.scheduler", "SphinxScheduler", "submit_job", "gridsim.scheduler.submit_job"),
    ("repro.gridsim.scheduler", "SphinxScheduler", "rank_sites", "gridsim.scheduler.rank_sites"),
    ("repro.gridsim.clock", "Simulator", "run_until", "gridsim.clock.run_until"),
    # core.steering
    ("repro.core.steering.service", "SteeringService", "steer_once", "core.steering.steer_once"),
    ("repro.core.steering.optimizer", "Optimizer", "evaluate", "core.steering.optimizer.evaluate"),
    ("repro.core.steering.backup_recovery", "BackupRecovery", "check_services",
     "core.steering.backup_recovery.check_services"),
    ("repro.core.steering.commands", "CommandProcessor", "pause", "core.steering.commands"),
    ("repro.core.steering.commands", "CommandProcessor", "resume", "core.steering.commands"),
    ("repro.core.steering.commands", "CommandProcessor", "set_priority", "core.steering.commands"),
    ("repro.core.steering.commands", "CommandProcessor", "kill", "core.steering.commands"),
    ("repro.core.steering.commands", "CommandProcessor", "move", "core.steering.commands"),
    # core.monitoring
    ("repro.core.monitoring.collector", "JobInformationCollector", "collect",
     "core.monitoring.collector.collect"),
    ("repro.core.monitoring.db_manager", "DBManager", "update", "core.monitoring.db_manager.update"),
    # core.estimators
    ("repro.core.estimators.runtime", "RuntimeEstimator", "estimate", "core.estimators.runtime.estimate"),
    ("repro.core.estimators.queue_time", "QueueTimeEstimator", "estimate", "core.estimators.queue_time"),
    ("repro.core.estimators.queue_time", "QueueTimeEstimator", "estimate_for_new",
     "core.estimators.queue_time"),
    # observability: journal, event-core consumers, telemetry, health
    ("repro.observability.journal", "EventJournal", "record", "observability.journal.record"),
    ("repro.observability.eventbus", "EstimatorConsumer", "apply", "observability.eventbus.estimators.apply"),
    ("repro.observability.eventbus", "MonitoringConsumer", "apply", "observability.eventbus.monitoring.apply"),
    ("repro.observability.eventbus", "MonALISAConsumer", "apply", "observability.eventbus.monalisa.apply"),
    ("repro.observability.eventbus", "AccountingConsumer", "apply", "observability.eventbus.accounting.apply"),
    ("repro.observability.telemetry", "TelemetryPipeline", "_tick", "observability.telemetry.window"),
    ("repro.observability.health", "HealthEngine", "evaluate", "observability.health.evaluate"),
    # monalisa publishers
    ("repro.monalisa.publisher", "SiteLoadPublisher", "publish_now", "monalisa.publish"),
    ("repro.monalisa.publisher", "ServiceMetricsPublisher", "publish_now", "monalisa.publish"),
    # scenarios: the engine calls score_slos through its own module global
    ("repro.scenarios.engine", None, "score_slos", "scenarios.score_slos"),
)

# Service classes whose exposed (Clarens) methods are the "service
# method" below the middleware: each gets a span so that
# ``clarens.server.dispatch`` self time is the middleware alone.
SERVICE_CLASSES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.monitoring.service", "JobMonitoringService", "core.monitoring.service"),
    ("repro.core.steering.service", "SteeringService", "core.steering.service"),
    ("repro.core.estimators.service", "EstimatorService", "core.estimators.service"),
    ("repro.monalisa.service", "MonALISAQueryService", "monalisa.service"),
    ("repro.accounting.service", "QuotaAccountingService", "accounting.service"),
)


class SpanRecorder:
    """Spans kept in memory: ``[name, start, end, parent, op]`` lists."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client_stack: List[int] = []
        self._local.stack = self._client_stack
        self._ops = 0
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Bytes produced by codec encoders while enabled.
        self.bytes_out = 0

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        elif stack is not self._client_stack and self._client_stack:
            # A server thread answering the client's in-flight call.
            parent = self._client_stack[-1]
        else:
            parent = -1
            if stack is self._client_stack:
                self._ops += 1
        span = [name, time.perf_counter(), 0.0, parent, self._ops]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the body as one span (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        recorder = self
        counts_bytes = name == "clarens.codecs.encode"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return fn(*args, **kwargs)
            index = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index)
            if counts_bytes:
                recorder.bytes_out += len(result)
            return result

        return traced

    # -- installing wrappers ----------------------------------------------
    def patch(self, owner: Any, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading ------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls": n, "self_ms": ms}}`` over every closed span."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end:
                child_s[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if not end:
                continue
            row = totals.setdefault(name, {"calls": 0, "self_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += max(0.0, end - start - child_s[i]) * 1000.0
        return totals

    def write_jsonl(self, path: str) -> int:
        """Write every span as one JSON line; returns the count."""
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }, separators=(",", ":")))
                out.write("\n")
        return len(self.spans)


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap every function in :data:`LAYER_FUNCTIONS` and the service methods."""
    for module_name, class_name, attr, name in LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        recorder.patch(owner, attr, name)
    from repro.clarens.registry import _CLARENS_ATTR

    for module_name, class_name, name in SERVICE_CLASSES:
        cls = getattr(importlib.import_module(module_name), class_name)
        for attr, value in list(vars(cls).items()):
            if callable(value) and hasattr(value, _CLARENS_ATTR):
                recorder.patch(cls, attr, name)

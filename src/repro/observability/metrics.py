"""Unified metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per GAE collects named instruments from
steering, monitoring, estimators, condor and accounting, so a single
``system.observability`` call (or the webui ``/metrics`` endpoint) can
expose them all.  The Clarens host keeps a second, wall-clock registry of
the same kind (``host.metrics``) for its call pipeline.  Histograms keep
a sliding-window :class:`~repro.clarens.telemetry.LatencyReservoir` for
percentiles.

Naming convention (documented in docs/ARCHITECTURE.md): metric names are
``gae_<area>_<what>[_total]`` — snake_case, ``gae_`` prefix, ``_total``
suffix for monotonic counters — and labels are lowercase identifiers
(``site``, ``command``, ``state``...).  Values are simulation-domain
unless the name says otherwise.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.clarens.telemetry import LatencyReservoir, percentile

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    # The 0- and 1-label cases dominate the instrumentation hot path;
    # skip the sort for them (a 1-tuple is trivially sorted).
    if not labels:
        return ()
    if len(labels) == 1:
        [(k, v)] = labels.items()
        return ((k, str(v)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"


def _num(value: float) -> str:
    """Exposition form of a sample: whole numbers exactly, others ``%g``."""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


class _Instrument:
    """Shared bookkeeping: name, help text, per-labelset storage, lock."""

    kind = "instrument"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def snapshot(self) -> Dict[str, Any]:  # pragma: no cover - overridden
        raise NotImplementedError

    def prometheus_lines(self) -> List[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class _BoundCounter:
    """A counter pre-bound to one labelset — the allocation-free hot path."""

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: "Counter", key: LabelKey) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        counter, key = self._counter, self._key
        with counter._lock:
            counter._values[key] = counter._values.get(key, 0.0) + amount


class Counter(_Instrument):
    """Monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def bind(self, **labels: Any) -> _BoundCounter:
        """A handle with the labelset resolved once, for per-event call sites."""
        return _BoundCounter(self, _label_key(labels))

    def export_state(self) -> Dict[str, Any]:
        with self._lock:
            values = dict(self._values)
        return {
            "kind": self.kind,
            "help": self.help,
            "values": [[[list(pair) for pair in k], v] for k, v in values.items()],
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        with self._lock:
            self._values = {
                tuple((k, v) for k, v in pairs): float(value)
                for pairs, value in state["values"]
            }

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def series(self) -> Dict[LabelKey, float]:
        """Every labelset's value, keyed by its ``((label, value), ...)`` key."""
        with self._lock:
            return dict(self._values)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            values = dict(self._values)
        return {
            "kind": self.kind,
            "help": self.help,
            "values": {_label_str(k) or "": v for k, v in sorted(values.items())},
        }

    def prometheus_lines(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} counter"]
        with self._lock:
            values = dict(self._values)
        for key, value in sorted(values.items()):
            lines.append(f"{self.name}{_label_str(key)} {_num(value)}")
        return lines


class _BoundGauge:
    """A gauge pre-bound to one labelset."""

    __slots__ = ("_gauge", "_key")

    def __init__(self, gauge: "Gauge", key: LabelKey) -> None:
        self._gauge = gauge
        self._key = key

    def set(self, value: float) -> None:
        with self._gauge._lock:
            self._gauge._values[self._key] = float(value)

    def inc(self, amount: float = 1.0) -> float:
        """Add *amount* and return the new value (read under the same lock)."""
        gauge, key = self._gauge, self._key
        with gauge._lock:
            value = gauge._values[key] = gauge._values.get(key, 0.0) + amount
        return value

    def set_max(self, value: float) -> None:
        """Raise the value to *value* if it is higher (a high-water mark)."""
        gauge, key = self._gauge, self._key
        with gauge._lock:
            if value > gauge._values.get(key, 0.0):
                gauge._values[key] = float(value)


class Gauge(_Instrument):
    """Point-in-time value; set explicitly or backed by a callable."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None) -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}
        self._fn = fn

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def bind(self, **labels: Any) -> _BoundGauge:
        """A handle with the labelset resolved once, for per-event call sites."""
        return _BoundGauge(self, _label_key(labels))

    def value(self, **labels: Any) -> float:
        if self._fn is not None and not labels:
            return float(self._fn())
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def export_state(self) -> Dict[str, Any]:
        # Only explicitly-set values travel; fn-backed values recompute
        # from whatever live object the gauge observes after a restore.
        with self._lock:
            values = dict(self._values)
        return {
            "kind": self.kind,
            "help": self.help,
            "values": [[[list(pair) for pair in k], v] for k, v in values.items()],
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        with self._lock:
            self._values = {
                tuple((k, v) for k, v in pairs): float(value)
                for pairs, value in state["values"]
            }

    def _current(self) -> Dict[LabelKey, float]:
        with self._lock:
            values = dict(self._values)
        if self._fn is not None:
            values[()] = float(self._fn())
        return values

    def total(self) -> float:
        """Sum over every labelset (including the fn-backed value)."""
        return sum(self._current().values())

    def series(self) -> Dict[LabelKey, float]:
        """Every labelset's value (including the fn-backed one under ``()``)."""
        return self._current()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "values": {_label_str(k) or "": v for k, v in sorted(self._current().items())},
        }

    def prometheus_lines(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} gauge"]
        for key, value in sorted(self._current().items()):
            lines.append(f"{self.name}{_label_str(key)} {_num(value)}")
        return lines


class _HistogramSeries:
    __slots__ = ("count", "sum", "max", "reservoir")

    def __init__(self, cap: int) -> None:
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self.reservoir = LatencyReservoir(cap)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        self.reservoir.add(value)

    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {"count": float(self.count), "sum": self.sum, "max": self.max}
        samples = self.reservoir.samples
        if samples:
            ordered = sorted(samples)
            out["p50"] = percentile(ordered, 50)
            out["p95"] = percentile(ordered, 95)
            out["p99"] = percentile(ordered, 99)
        return out

    def export_state(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "samples": list(self.reservoir.samples),
            "next": self.reservoir._next,
        }

    @classmethod
    def from_state(cls, cap: int, state: Dict[str, Any]) -> "_HistogramSeries":
        series = cls(cap)
        series.count = int(state["count"])
        series.sum = float(state["sum"])
        series.max = float(state["max"])
        series.reservoir.samples = [float(v) for v in state["samples"]]
        series.reservoir._next = int(state["next"])
        return series


class _BoundHistogram:
    """A histogram pre-bound to one labelset — the allocation-free hot path."""

    __slots__ = ("_histogram", "_key")

    def __init__(self, histogram: "Histogram", key: LabelKey) -> None:
        self._histogram = histogram
        self._key = key

    def observe(self, value: float) -> None:
        histogram, key = self._histogram, self._key
        with histogram._lock:
            series = histogram._series.get(key)
            if series is None:
                series = histogram._series[key] = _HistogramSeries(histogram._cap)
            series.observe(value)


class Histogram(_Instrument):
    """Distribution summary over a sliding reservoir of observations."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", reservoir_cap: int = 512) -> None:
        super().__init__(name, help)
        self._series: Dict[LabelKey, _HistogramSeries] = {}
        self._cap = reservoir_cap

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(self._cap)
            series.observe(value)

    def bind(self, **labels: Any) -> "_BoundHistogram":
        """A handle with the labelset resolved once, for per-event call sites."""
        return _BoundHistogram(self, _label_key(labels))

    def export_state(self) -> Dict[str, Any]:
        with self._lock:
            series = {k: s.export_state() for k, s in self._series.items()}
        return {
            "kind": self.kind,
            "help": self.help,
            "cap": self._cap,
            "series": [[[list(pair) for pair in k], s] for k, s in series.items()],
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        with self._lock:
            self._cap = int(state.get("cap", self._cap))
            self._series = {
                tuple((k, v) for k, v in pairs): _HistogramSeries.from_state(self._cap, s)
                for pairs, s in state["series"]
            }

    def summary(self, **labels: Any) -> Dict[str, float]:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.summary() if series is not None else {}

    def series(self) -> Dict[LabelKey, Dict[str, float]]:
        """Every labelset's :meth:`summary`, keyed like :meth:`Counter.series`."""
        with self._lock:
            return {k: s.summary() for k, s in self._series.items()}

    def total_count(self) -> float:
        """Observation count summed over every labelset."""
        with self._lock:
            return float(sum(s.count for s in self._series.values()))

    def merged_summary(self) -> Dict[str, float]:
        """Count/sum/max plus p50/p95/p99 over all labelsets' reservoirs."""
        with self._lock:
            series = list(self._series.values())
            merged: List[float] = []
            for s in series:
                merged.extend(s.reservoir.samples)
            out: Dict[str, float] = {
                "count": float(sum(s.count for s in series)),
                "sum": sum(s.sum for s in series),
                "max": max((s.max for s in series), default=0.0),
            }
        if merged:
            ordered = sorted(merged)
            out["p50"] = percentile(ordered, 50)
            out["p95"] = percentile(ordered, 95)
            out["p99"] = percentile(ordered, 99)
        return out

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            summaries = {k: s.summary() for k, s in self._series.items()}
        return {
            "kind": self.kind,
            "help": self.help,
            "values": {_label_str(k) or "": v for k, v in sorted(summaries.items())},
        }

    def prometheus_lines(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} summary"]
        with self._lock:
            summaries = sorted((k, s.summary()) for k, s in self._series.items())
        for key, summary in summaries:
            base = dict(key)
            for q, field in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                if field in summary:
                    quantile_key = _label_key({**base, "quantile": q})
                    lines.append(f"{self.name}{_label_str(quantile_key)} {_num(summary[field])}")
            lines.append(f"{self.name}_sum{_label_str(key)} {_num(summary['sum'])}")
            lines.append(f"{self.name}_count{_label_str(key)} {_num(summary['count'])}")
        return lines


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Asking twice for the same name returns the same instrument; asking
    for an existing name with a different kind raises ``ValueError`` so
    two services cannot silently fight over one series.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs: Any):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, fn=fn)

    def histogram(self, name: str, help: str = "", reservoir_cap: int = 512) -> Histogram:
        return self._get_or_create(Histogram, name, help, reservoir_cap=reservoir_cap)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def snapshot(self) -> Dict[str, Any]:
        """Wire-safe snapshot of every instrument, keyed by name."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: inst.snapshot() for name, inst in sorted(instruments.items())}

    def prometheus_lines(self) -> List[str]:
        """Prometheus text-exposition lines for every instrument."""
        with self._lock:
            instruments = [inst for _, inst in sorted(self._instruments.items())]
        lines: List[str] = []
        for inst in instruments:
            lines.extend(inst.prometheus_lines())
        return lines

    # -- persistence (state-store backend) ------------------------------

    def save_to(self, store: "StateStore") -> int:
        """Write every instrument's state into ``observability.metrics``."""
        from repro.store.registry import OBSERVABILITY_METRICS, namespace_record

        store.register_namespace(namespace_record(OBSERVABILITY_METRICS))
        store.clear(OBSERVABILITY_METRICS)
        with self._lock:
            instruments = dict(self._instruments)
        return store.put_many(
            OBSERVABILITY_METRICS,
            ((name, inst.export_state()) for name, inst in instruments.items()),
        )

    def load_from(self, store: "StateStore") -> int:
        """Restore instrument values from ``observability.metrics``.

        Instruments already registered (the normal case after rebuilding
        a GAE) get their values replaced in place, preserving any bound
        handles and gauge callables; unknown names are re-created from
        the stored kind/help.
        """
        from repro.store.registry import OBSERVABILITY_METRICS

        classes = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        n = 0
        for name, state in store.items(OBSERVABILITY_METRICS):
            cls = classes[state["kind"]]
            inst = self._get_or_create(cls, name, state.get("help", ""))
            inst.import_state(state)
            n += 1
        return n

"""Shared measurement helpers: latency summaries, failure accounting, checks."""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

#: Where runs leave their spans and scratch files (inside the checkout).
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

#: Every window must keep at least this many samples above its tail
#: percentile, or the run fails (see :meth:`Summary.of`).
MIN_BEYOND_TAIL = 10


class CheckFailed(RuntimeError):
    """A correctness or workload-regime check failed: the run reports nothing."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Latencies:
    """Per-operation times (seconds) of one measured phase.

    ``samples`` are scaled to reference host speed (:class:`ScaledClock`);
    ``raw`` are the same operations' wall times as measured.
    """

    samples: List[float] = field(default_factory=list)
    raw: List[float] = field(default_factory=list)

    def p50_ms(self) -> float:
        return float(np.percentile(self.samples, 50.0)) * 1000.0

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.samples, q)) * 1000.0

    def split(self, parts: int) -> List["Latencies"]:
        """Consecutive, equal-count windows of the samples."""
        n = len(self.samples)
        bounds = [n * i // parts for i in range(parts + 1)]
        return [
            Latencies(self.samples[a:b], self.raw[a:b])
            for a, b in zip(bounds, bounds[1:])
        ]


@dataclass
class Summary:
    """End-to-end figures of a measured phase.

    The rate is operations over the time of all windows, so it follows
    the whole mix of operations; the latencies are medians over the
    windows, so a burst of host noise spoils one window, not the figure.
    Each workload fixes its tail percentile and the number of operations
    it runs, so the tail means the same thing on every run.
    """

    ops_per_s: float
    p50_ms: float
    tail_q: float
    tail_ms: float
    samples: int

    @classmethod
    def of(cls, windows: Sequence[Latencies], ops: Sequence[float],
           tail_q: float) -> "Summary":
        """``ops[i]`` operations completed in window ``i``; tail at ``p<tail_q>``."""
        for w in windows:
            beyond = len(w.samples) * (1.0 - tail_q / 100.0)
            check(beyond >= MIN_BEYOND_TAIL,
                  f"a window of {len(w.samples)} samples keeps {beyond:.1f} above "
                  f"p{tail_q:g}, fewer than {MIN_BEYOND_TAIL}: run more operations")
        return cls(
            ops_per_s=sum(ops) / sum(sum(w.samples) for w in windows),
            p50_ms=median([w.p50_ms() for w in windows]),
            tail_q=tail_q,
            tail_ms=median([w.percentile_ms(tail_q) for w in windows]),
            samples=sum(len(w.samples) for w in windows),
        )

    def line(self, what: str) -> str:
        return (
            f"{what}: {self.ops_per_s:.3f} ops/s; medians over windows: p50 "
            f"{self.p50_ms:.4f} ms, p{self.tail_q:g} {self.tail_ms:.4f} ms "
            f"({self.samples} samples)"
        )


class Ledger:
    """Attempted and failed operations, per phase."""

    def __init__(self) -> None:
        self.phases: Dict[str, List[int]] = {}

    def record(self, phase: str, ok: bool, count: int = 1) -> None:
        row = self.phases.setdefault(phase, [0, 0])
        row[0] += count
        if not ok:
            row[1] += count

    @property
    def attempted(self) -> int:
        return sum(row[0] for row in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(row[1] for row in self.phases.values())

    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def rows(self) -> List[str]:
        return [
            f"  phase {name:<10} attempted {a:>7}  succeeded {a - f:>7}  failed {f:>5}"
            for name, (a, f) in self.phases.items()
        ]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


@dataclass
class Outcome:
    """What one workload run hands back to the command line.

    ``metrics`` holds the end-to-end metrics of an untraced run, or the
    per-layer values that do not come from spans (counters, ratios) of a
    traced one; ``recorder`` holds the traced run's spans.
    """

    metrics: Dict[str, float]
    ledger: Ledger
    report: List[str]
    recorder: Optional[Any] = None


_PROBE_DOC = [{"task_id": f"task-{i:06d}", "state": "idle", "priority": i % 5,
               "progress": i / 32.0} for i in range(32)]


def _probe_work() -> int:
    """A fixed slice of work: interpreter dict/list traffic plus JSON coding."""
    table: Dict[int, int] = {}
    items: List[int] = []
    total = 0
    for i in range(2_000):
        table[i & 255] = i
        items.append(i)
        total += table.get(i & 127, 0) + len(items)
    total += len(json.loads(json.dumps(_PROBE_DOC)))
    return total


class SpeedProbe:
    """Tracks how fast this host runs Python right now.

    The host is shared, so its speed drifts by tens of percent within a
    run.  :meth:`tick` times one fixed unit of interpreter work; the
    median of the last :data:`WINDOW` ticks says how fast the host is at
    the moment, and :meth:`scale` maps a wall time measured now to the
    time it would take on a host running the probe in :data:`REFERENCE_S`.
    """

    REFERENCE_S = 0.0007
    WINDOW = 9

    def __init__(self) -> None:
        self.samples: List[float] = []
        for _ in range(self.WINDOW):
            self.tick()

    def tick(self) -> None:
        # No collections inside the probe: one triggered by the program's
        # allocations would be charged to the host's speed.
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _probe_work()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()

    def scale(self) -> float:
        return self.REFERENCE_S / statistics.median(self.samples[-self.WINDOW:])


class ScaledClock:
    """Scales measured wall times to reference speed (see :class:`SpeedProbe`).

    The probe runs after every :data:`TICK_EVERY_S` of measured time, so
    it costs about a tenth of the run.  An operation's scaled time uses the
    probe window before it and, for long operations, a fresh window after
    it too.
    """

    TICK_EVERY_S = 0.007
    LONG_S = 0.05

    def __init__(self) -> None:
        self.probe = SpeedProbe()
        self._pending = 0.0

    def scaled(self, raw_s: float) -> float:
        factor = self.probe.scale()
        if raw_s >= self.LONG_S:
            for _ in range(SpeedProbe.WINDOW):
                self.probe.tick()
            factor = (factor + self.probe.scale()) / 2.0
            self._pending = 0.0
        else:
            self._pending += raw_s
            if self._pending >= self.TICK_EVERY_S:
                self._pending = 0.0
                self.probe.tick()
        return raw_s * factor

    def stopwatch(self) -> "Stopwatch":
        return Stopwatch(self)

    def factor(self) -> float:
        """Median host speed factor over the run (for reports)."""
        return SpeedProbe.REFERENCE_S / statistics.median(self.probe.samples)


class Stopwatch:
    """Scaled time of one long operation, measured in segments.

    The operation calls :meth:`mark` at natural break points; each
    segment is scaled with the probe window current when it ends, and the
    probe ticks (outside the segments) so a multi-second set-up follows
    the host's speed as it drifts.
    """

    def __init__(self, clock: ScaledClock) -> None:
        self.clock = clock
        self.total_s = 0.0
        self._t0 = time.perf_counter()

    def mark(self) -> None:
        raw = time.perf_counter() - self._t0
        self.total_s += raw * self.clock.probe.scale()
        self.clock.probe.tick()
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        self.mark()
        return self.total_s

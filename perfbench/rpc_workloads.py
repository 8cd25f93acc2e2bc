"""The two RPC workloads: ``read-hot`` (framed socket) and ``steer-mixed`` (in-process).

Both build a quiescent two-site GAE with the shipped ``build_gae``
defaults (observability, telemetry and read cache on), then drive its
Clarens surface from one closed-loop client on one connection: the next
call goes out when the previous answer is back.  The simulator clock
does not move while a workload runs, so every answer is reproducible.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from measure import (
    Latencies, Ledger, Outcome, ScaledClock, Stopwatch, Summary, check, median,
    peak_rss_mb,
)
from spans import SpanRecorder, install_layer_spans

#: Nodes per site (4 CPUs each): 512 running slots across the two sites.
NODES_PER_SITE = 64
#: Untraced runs build the system this many times; setup_s is the median.
SETUP_REPEATS = 3
#: The measured calls are cut into this many windows (an equal number on
#: each build); latency metrics are medians over them.
MEASURE_WINDOWS = 6

READ_HOT_TASKS = 2_000
READ_HOT_SCHEDULE = 20_000
#: A run makes ``--seconds`` x this many calls, whatever the program's
#: speed, so every run covers the same stretch of the schedule.
READ_HOT_CALLS_PER_S = 380
READ_HOT_TAIL_Q = 95.0
READ_HOT_TRACED_CALLS = 1_500
READ_HOT_MIN_HIT_RATIO = 0.9

STEER_TASKS = 3_000
STEER_SCHEDULE = 20_000
STEER_CALLS_PER_S = 200
STEER_TAIL_Q = 95.0
STEER_TRACED_CALLS = 600
STEER_MAX_HIT_RATIO = 0.2
STEER_MIN_IDLE_DEPTH = 1_000

Call = Tuple[str, List[Any]]


class Rig:
    """A quiescent GAE holding ``n_tasks`` single-task jobs owned by ``bench``."""

    def __init__(self, seed: int, n_tasks: int, watch: Stopwatch) -> None:
        from repro.gae import SteeringPolicy, build_gae
        from repro.gridsim import GridBuilder
        from repro.gridsim.job import Job, Task, TaskSpec, reset_id_counters

        reset_id_counters()
        rng = np.random.default_rng((seed, 1))
        grid = (
            GridBuilder(seed=seed)
            .site("siteA", nodes=NODES_PER_SITE, cpus_per_node=4)
            .site("siteB", nodes=NODES_PER_SITE, cpus_per_node=4)
            .link("siteA", "siteB", capacity_mbps=622.0, latency_s=0.05)
            .probe_noise(0.0)
            .build()
        )
        # The clock only moves for the 100 s settle below, so the steering
        # loop is parked rather than auto-moving tasks mid-measurement.
        gae = build_gae(
            grid, policy=SteeringPolicy(auto_move=False, poll_interval_s=3_600.0)
        )
        gae.add_user("bench", "bench")
        gae.start()
        self.task_ids: List[str] = []
        for i, work in enumerate(rng.uniform(150.0, 1_500.0, n_tasks)):
            task = Task(
                spec=TaskSpec(owner="bench", priority=int(rng.integers(0, 5))),
                work_seconds=float(work),
            )
            self.task_ids.append(task.task_id)
            gae.scheduler.submit_job(Job(tasks=[task], owner="bench"))
            if i % 100 == 99:
                watch.mark()
        grid.run_until(100.0)  # dispatch settles; the rest of the queue idles
        self.gae = gae
        self.token = gae.host.dispatch("system.login", ["bench", "bench"])

    def pool_of(self, task_id: str) -> Any:
        return self.gae.grid.sites[self.gae.scheduler.site_of_task(task_id)].pool

    def pools(self) -> List[Any]:
        sites = self.gae.grid.sites
        return [sites[name].pool for name in sorted(sites)]

    def idle_depth(self) -> int:
        return sum(len(pool.queue_snapshot()) for pool in self.pools())

    def cache_counts(self) -> Dict[str, int]:
        totals = {"hits": 0, "misses": 0, "invalidations": 0}
        for counters in self.gae.host.read_cache.snapshot()["per_method"].values():
            for kind in totals:
                totals[kind] += counters[kind]
        return totals


def _strip_trace_ids(value: Any) -> Any:
    """Drop the per-call ``trace_id``; every other byte must compare equal."""
    if isinstance(value, dict):
        return {k: _strip_trace_ids(v) for k, v in value.items() if k != "trace_id"}
    if isinstance(value, (list, tuple)):
        return [_strip_trace_ids(v) for v in value]
    return value


def _key(method: str, params: List[Any]) -> str:
    return json.dumps([method, params], sort_keys=True)


def _cache_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    delta = {k: float(after[k] - before[k]) for k in before}
    lookups = delta["hits"] + delta["misses"] + delta["invalidations"]
    delta["hit_ratio"] = delta["hits"] / lookups if lookups else 0.0
    return delta


class _RpcSystem:
    """One built workload: rig, transport and call schedule."""

    rig: Rig
    schedule: List[Call]
    label: str

    def call(self, method: str, params: List[Any]) -> Any:
        raise NotImplementedError

    def accept(self, method: str, params: List[Any], answer: Any) -> bool:
        """Record the answer; False when it reports a failed operation."""
        return True

    def close(self) -> None:
        self.rig.gae.stop()

    def queue_wait(self) -> Tuple[int, float]:
        """``(count, total ms)`` of server worker-queue waits so far."""
        return 0, 0.0


def _closed_loop(
    system: _RpcSystem, ledger: Ledger, phase: str, clock: ScaledClock, count: int,
    start: int = 0, recorder: Optional[SpanRecorder] = None,
) -> Tuple[Latencies, float]:
    """Make *count* scheduled calls back to back, from call *start* on.

    Returns the calls' scaled latencies and the phase's raw wall time.
    """
    from repro.clarens.errors import ClarensFault

    lat = Latencies()
    clk = time.perf_counter
    schedule = system.schedule
    began = clk()
    for i in range(start, start + count):
        method, params = schedule[i % len(schedule)]
        t0 = clk()
        try:
            if recorder is not None:
                with recorder.span("bench.op"):
                    answer = system.call(method, params)
            else:
                answer = system.call(method, params)
            ok = True
        except ClarensFault:
            answer, ok = None, False
        raw = clk() - t0
        lat.raw.append(raw)
        lat.samples.append(clock.scaled(raw))
        ledger.record(phase, ok and system.accept(method, params, answer))
    return lat, clk() - began


# ----------------------------------------------------------------------
# read-hot
# ----------------------------------------------------------------------
class ReadHot(_RpcSystem):
    """The read-only hot mix over the framed async socket transport."""

    def __init__(self, seed: int, ledger: Ledger, watch: Stopwatch) -> None:
        from repro.analysis.load import build_schedule
        from repro.clarens.aio import AsyncSocketServerHandle
        from repro.clarens.transport import AsyncSocketTransport

        self.rig = Rig(seed, READ_HOT_TASKS, watch)
        self.server = AsyncSocketServerHandle(self.rig.gae.host).start()
        self.transport = AsyncSocketTransport(self.server.address)
        self.label = f"{READ_HOT_TASKS} jobs over {self.transport.url}"
        self.schedule = build_schedule(
            np.random.default_rng((seed, 2)), self.rig.task_ids,
            READ_HOT_SCHEDULE, mutations=False,
        )
        self.distinct: Dict[str, Call] = {}
        for method, params in self.schedule:
            self.distinct.setdefault(_key(method, params), (method, params))
        self.answers: Dict[str, Any] = {}
        # Warm the read cache with every distinct call once.
        for i, (method, params) in enumerate(self.distinct.values()):
            answer = self.call(method, params)
            ledger.record("warmup", self.accept(method, params, answer))
            if i % 16 == 15:
                watch.mark()

    def call(self, method: str, params: List[Any]) -> Any:
        return self.transport.call(method, params, token=self.rig.token)

    def accept(self, method: str, params: List[Any], answer: Any) -> bool:
        self.answers[_key(method, params)] = answer
        return True

    def close(self) -> None:
        self.transport.close()
        self.server.shutdown()
        super().close()

    def queue_wait(self) -> Tuple[int, float]:
        stats = self.rig.gae.host.dispatch("system.stats", [], self.rig.token)
        count, total_ms = 0, 0.0
        for pool in stats.get("worker_pools", {}).values():
            stage = pool["stages"].get("queue_wait", {})
            n = int(stage.get("count", 0))
            count += n
            total_ms += stage.get("mean_ms", 0.0) * n
        return count, total_ms

    def verify(self, ledger: Ledger) -> None:
        """Replay every distinct call in-process, uncached: answers must match."""
        from repro.clarens.errors import ClarensFault

        host = self.rig.gae.host
        host.read_cache.enabled = False
        try:
            for key, (method, params) in self.distinct.items():
                try:
                    reference = host.dispatch(method, params, self.rig.token)
                    same = _strip_trace_ids(reference) == _strip_trace_ids(self.answers[key])
                except ClarensFault:
                    same = False
                ledger.record("verify", same)
                check(same, f"read-hot: wire answer of {method}{params} differs "
                            "from the uncached in-process answer")
        finally:
            host.read_cache.enabled = True

    def regime(self, cache: Dict[str, float]) -> None:
        check(cache["hit_ratio"] >= READ_HOT_MIN_HIT_RATIO,
              f"read-hot regime: read-cache hit ratio {cache['hit_ratio']:.3f} "
              f"< {READ_HOT_MIN_HIT_RATIO}")


# ----------------------------------------------------------------------
# steer-mixed
# ----------------------------------------------------------------------
def steer_schedule(rng: np.random.Generator, task_ids: List[str],
                   running: List[str], length: int) -> List[Call]:
    """About a third steering writes, the rest per-task reads, ids uniform."""
    schedule: List[Call] = []
    while len(schedule) < length:
        r = float(rng.random())
        tid = task_ids[int(rng.integers(0, len(task_ids)))]
        if r < 0.20:
            schedule.append(("steering.set_priority", [tid, int(rng.integers(0, 10))]))
        elif r < 0.28:
            # pause -> resume pairs need a running task (Condor suspends in place)
            rid = running[int(rng.integers(0, len(running)))]
            schedule.append(("steering.pause", [rid]))
            schedule.append(("steering.resume", [rid]))
        elif r < 0.50:
            schedule.append(("jobmon.job_status", [tid]))
        elif r < 0.66:
            schedule.append(("jobmon.queue_position", [tid]))
        elif r < 0.78:
            schedule.append(("jobmon.progress", [tid]))
        elif r < 0.90:
            schedule.append(("jobmon.job_info", [tid]))
        else:
            schedule.append(("steering.evaluate_move", [tid]))
    return schedule


class SteerMixed(_RpcSystem):
    """Steering writes beside per-task reads, in process (no wire)."""

    def __init__(self, seed: int, ledger: Ledger, watch: Stopwatch) -> None:
        from repro.clarens.transport import LoopbackTransport

        self.rig = Rig(seed, STEER_TASKS, watch)
        self.transport = LoopbackTransport(self.rig.gae.host)
        self.label = f"{STEER_TASKS} jobs in process"
        running = sorted(
            ad.task_id for pool in self.rig.pools() for ad in pool.running_snapshot()
        )
        self.schedule = steer_schedule(
            np.random.default_rng((seed, 3)), self.rig.task_ids, running, STEER_SCHEDULE
        )
        self.last_priority: Dict[str, int] = {}

    def call(self, method: str, params: List[Any]) -> Any:
        return self.transport.call(method, params, token=self.rig.token)

    def accept(self, method: str, params: List[Any], answer: Any) -> bool:
        if not method.startswith("steering.") or method == "steering.evaluate_move":
            return True
        if method == "steering.set_priority" and answer["ok"]:
            self.last_priority[params[0]] = params[1]
        return bool(answer["ok"])

    def verify(self, ledger: Ledger) -> None:
        """Pool priorities equal the last write per task; the event core folds clean."""
        for tid, priority in sorted(self.last_priority.items()):
            got = self.rig.pool_of(tid).status(tid).priority
            ledger.record("verify", got == priority)
            check(got == priority,
                  f"steer-mixed: {tid} has pool priority {got}, last set {priority}")
        for verdict in self.rig.gae.observability.eventcore.verify_all():
            clean = bool(verdict["identical"] and verdict["covered"])
            ledger.record("verify", clean)
            check(clean, f"steer-mixed: event core verify failed: {verdict}")

    def regime(self, cache: Dict[str, float]) -> None:
        check(cache["hit_ratio"] <= STEER_MAX_HIT_RATIO,
              f"steer-mixed regime: read-cache hit ratio {cache['hit_ratio']:.3f} "
              f"> {STEER_MAX_HIT_RATIO}")
        depth = self.rig.idle_depth()
        check(depth >= STEER_MIN_IDLE_DEPTH,
              f"steer-mixed regime: idle depth {depth} < {STEER_MIN_IDLE_DEPTH}")


# ----------------------------------------------------------------------
# the shared run
# ----------------------------------------------------------------------
def _build(system_cls, seed: int, ledger: Ledger, clock: ScaledClock) -> Tuple[_RpcSystem, float]:
    watch = clock.stopwatch()
    system = system_cls(seed, ledger, watch)
    return system, watch.stop()


def _finish(system: _RpcSystem, ledger: Ledger, cache: Dict[str, float]) -> None:
    system.verify(ledger)
    system.regime(cache)
    check(ledger.failed == 0, f"{ledger.failed} failed operations")
    system.close()


def _run(system_cls, seed: int, seconds: float, calls_per_s: float, tail_q: float) -> Outcome:
    """Untraced run: build the system :data:`SETUP_REPEATS` times and run
    the next equal share of the calls on each build.

    A build's latencies shift by several percent with the build (its
    server threads, its heap), so a run samples several builds and takes
    medians over their windows.
    """
    ledger = Ledger()
    clock = ScaledClock()
    share = int(seconds * calls_per_s) // SETUP_REPEATS
    setups: List[float] = []
    windows: List[Latencies] = []
    cache_total = {"hits": 0.0, "misses": 0.0, "invalidations": 0.0}
    wall = 0.0
    for k in range(SETUP_REPEATS):
        system, setup_s = _build(system_cls, seed, ledger, clock)
        setups.append(setup_s)
        cache0 = system.rig.cache_counts()
        lat, seconds_k = _closed_loop(system, ledger, "measure", clock, share, start=k * share)
        wall += seconds_k
        cache = _cache_delta(cache0, system.rig.cache_counts())
        for kind in cache_total:
            cache_total[kind] += cache[kind]
        windows.extend(lat.split(MEASURE_WINDOWS // SETUP_REPEATS))
        label = system.label
        _finish(system, ledger, cache)
    summary = Summary.of(windows, [len(w.samples) for w in windows], tail_q)
    lookups = sum(cache_total.values())
    raw = [t for w in windows for t in w.raw]
    report = [
        f"  {label}: one closed-loop client, {len(raw)} calls over {SETUP_REPEATS} "
        f"builds in {wall:.2f} s wall ({len(raw) / sum(raw):.2f} calls/s unscaled), "
        f"host speed factor {clock.factor():.3f}",
        f"  scaled: calls_per_s {summary.ops_per_s:.2f} 1/s, call_p50_ms {summary.p50_ms:.4f} ms "
        f"(n={summary.samples}), call_p{tail_q:g}_ms {summary.tail_ms:.4f} ms "
        f"(n={len(windows[0].samples)} per window); medians over {len(windows)} "
        f"windows; unscaled p50 {median([median(w.raw) for w in windows]) * 1000:.4f} ms",
        f"  read cache: hit ratio {cache_total['hits'] / lookups if lookups else 0.0:.4f} "
        f"({cache_total['hits']:.0f} hits, {cache_total['misses']:.0f} misses, "
        f"{cache_total['invalidations']:.0f} invalidations)",
    ]
    return Outcome(
        metrics={
            "setup_s": median(setups),
            "ops_per_s": summary.ops_per_s,
            "op_p50_ms": summary.p50_ms,
            "op_tail_ms": summary.tail_ms,
            "peak_rss_mb": peak_rss_mb(),
        },
        ledger=ledger, report=report,
    )


def _run_traced(system_cls, seed: int, calls: int) -> Outcome:
    """Traced run: the same first *calls* calls, untraced and then traced.

    The untraced pass runs on a system built before any wrapper is
    installed, so ``tracing_overhead_pct`` is the whole cost of tracing.
    The traced pass also records its system's one build.
    """
    ledger = Ledger()
    clock = ScaledClock()
    system, _ = _build(system_cls, seed, ledger, clock)
    base, _ = _closed_loop(system, ledger, "untraced", clock, calls)
    system.close()

    recorder = SpanRecorder()
    install_layer_spans(recorder)
    recorder.enabled = True
    system, _ = _build(system_cls, seed, ledger, clock)
    recorder.enabled = False
    queue0 = system.queue_wait()
    cache0 = system.rig.cache_counts()
    recorder.enabled = True
    lat, wall = _closed_loop(system, ledger, "traced", clock, calls, recorder=recorder)
    recorder.enabled = False
    cache = _cache_delta(cache0, system.rig.cache_counts())
    queue1 = system.queue_wait()
    base_ms = sum(base.samples) / len(base.samples) * 1000.0
    traced_ms = sum(lat.samples) / len(lat.samples) * 1000.0
    extras = {f"clarens.readcache.{kind}": value for kind, value in cache.items()}
    extras.update({
        "clarens.aio.queue_wait_ms": (queue1[1] - queue0[1]) / max(1, queue1[0] - queue0[0]),
        "clarens.codecs.bytes_out": float(recorder.bytes_out),
        "gridsim.condor.idle_depth_max": float(system.rig.idle_depth()),
        "tracing_overhead_pct": (traced_ms / base_ms - 1.0) * 100.0,
    })
    report = [
        f"  {system.label}: calls 0-{calls - 1} of the schedule, untraced on a "
        f"system built without wrappers, then traced ({wall:.2f} s wall); "
        f"host speed factor {clock.factor():.3f}",
        f"  mean scaled call: {base_ms:.4f} ms untraced, {traced_ms:.4f} ms traced",
        f"  read cache (traced calls): hit ratio {cache['hit_ratio']:.4f}",
    ]
    _finish(system, ledger, cache)
    return Outcome(metrics=extras, ledger=ledger, report=report, recorder=recorder)


def run_read_hot(seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        return _run_traced(ReadHot, seed, READ_HOT_TRACED_CALLS)
    return _run(ReadHot, seed, seconds, READ_HOT_CALLS_PER_S, READ_HOT_TAIL_Q)


def run_steer_mixed(seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        return _run_traced(SteerMixed, seed, STEER_TRACED_CALLS)
    return _run(SteerMixed, seed, seconds, STEER_CALLS_PER_S, STEER_TAIL_Q)

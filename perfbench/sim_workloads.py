"""The two campaign workloads: ``drain`` (scenario engine) and ``recover`` (store).

Both run a benchmark-generated multi-VO campaign: three VOs at different
priorities submit single-task jobs to a three-site grid faster than it
drains them.  Two large sites flock to each other; a small third site
has one outage while jobs arrive; auto-steering (the default policy) is
on.  Arrivals are an open loop in simulated time.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from measure import (
    OUT_DIR, Latencies, Ledger, Outcome, ScaledClock, Stopwatch, Summary, check, median,
    peak_rss_mb,
)
from spans import SpanRecorder, install_layer_spans

#: Simulated seconds per timed slice of a drain campaign (500 slices).
SIM_SLICE_S = 30.0
DRAIN_TASKS_PER_VO = 450
DRAIN_STREAMS = 3
#: A run makes ``--seconds`` / this many campaigns, and at least one
#: per stream plus a second run of the first.
DRAIN_SECONDS_PER_CAMPAIGN = 8.0
#: Set-up-only run_scenario calls an untraced run adds to its campaigns'.
DRAIN_EXTRA_SETUPS = 16
#: Tail of a campaign's slices: 25 of its 500 slices lie above it.
DRAIN_TAIL_Q = 95.0
DRAIN_MIN_IDLE_DEPTH = 1_000

RECOVER_TASKS_PER_VO = 200
#: Simulated seconds the live system advances between base and delta.
RECOVER_STEP_S = 10.0
#: A run makes ``--seconds`` x this many cycles (three operations each).
RECOVER_CYCLES_PER_S = 1.6
RECOVER_TRACED_CYCLES = 8
#: Windows of the measured cycles; at 25 s a window holds 60 operations,
#: 15 of them above the tail.
RECOVER_WINDOWS = 2
RECOVER_TAIL_Q = 75.0


def campaign_spec(seed: int, tasks_per_vo: int):
    """The drain/recover campaign: arrivals every 2.5 s per VO, ~300 s tasks."""
    from repro.scenarios.spec import ScenarioSpec

    interval_s = 2.5
    horizon_s = 15_000.0
    return ScenarioSpec.from_dict({
        "name": "perfbench-campaign",
        "description": "Three VOs outrun a three-site grid through a small-site outage.",
        "seed": seed,
        "horizon_s": horizon_s,
        "grid": {
            "sites": [
                {"name": "siteA", "nodes": 4, "cpus_per_node": 4},
                {"name": "siteB", "nodes": 4, "cpus_per_node": 4},
                {"name": "siteC", "nodes": 2, "cpus_per_node": 2},
            ],
            "links": [
                {"a": "siteA", "b": "siteB", "capacity_mbps": 622.0, "latency_s": 0.05},
                {"a": "siteA", "b": "siteC", "capacity_mbps": 155.0, "latency_s": 0.08},
                {"a": "siteB", "b": "siteC", "capacity_mbps": 155.0, "latency_s": 0.08},
            ],
            "flocking": [["siteA", "siteB"], ["siteB", "siteA"]],
        },
        "workload": {
            "shape": "multi_vo",
            "interval_s": interval_s,
            "vos": [
                {"owner": "cms", "tasks": tasks_per_vo, "priority": 10, "mean_seconds": 300.0},
                {"owner": "atlas", "tasks": tasks_per_vo, "priority": 5, "mean_seconds": 300.0},
                {"owner": "bulk-mc", "tasks": tasks_per_vo, "priority": 0, "mean_seconds": 300.0},
            ],
        },
        "chaos": [
            {"kind": "outage", "site": "siteC", "start_s": 300.0, "duration_s": 600.0},
        ],
        "slos": [
            {"metric": "completion_ratio", "op": ">=", "threshold": 1.0},
            {"metric": "makespan_s", "op": "<=", "threshold": horizon_s},
        ],
    })


def _idle_depth(grid: Any) -> int:
    return sum(len(site.pool.queue_snapshot()) for site in grid.sites.values())


def _journal_counts(gae: Any) -> Counter:
    return Counter(event.type.value for event in gae.observability.journal.events())


# ----------------------------------------------------------------------
# drain
# ----------------------------------------------------------------------
class _Campaign:
    """One ``run_scenario`` call, its set-up time and its timed sim slices."""

    def __init__(self, spec: Any, ledger: Ledger, clock: ScaledClock) -> None:
        from repro.gridsim.grid import Grid
        from repro.scenarios.engine import run_scenario

        self.slices = Latencies()
        self.idle_max = 0
        self.counts: Counter = Counter()
        self.events = 0
        original = Grid.run_until
        marks: List[float] = []

        def sliced(grid: Any, t: float) -> int:
            # run_scenario's one call into the simulator: set-up ends here.
            marks.append(time.perf_counter())
            executed = 0
            now = grid.sim.now
            while now < t:
                step_to = min(t, now + SIM_SLICE_S)
                t0 = time.perf_counter()
                executed += grid.sim.run_until(step_to)
                raw = time.perf_counter() - t0
                self.slices.raw.append(raw)
                self.slices.samples.append(clock.scaled(raw))
                self.idle_max = max(self.idle_max, _idle_depth(grid))
                now = step_to
            return executed

        def on_complete(gae: Any, entry: Dict[str, Any]) -> None:
            self.counts = _journal_counts(gae)
            self.events = gae.sim.executed_events

        start = time.perf_counter()
        Grid.run_until = sliced
        try:
            entry = run_scenario(spec, on_complete=on_complete)
        finally:
            Grid.run_until = original
        end = time.perf_counter()
        check(len(marks) == 1, "drain: run_scenario did not call run_until once")
        self.setup_s = clock.scaled(marks[0] - start)
        self.wall_s = end - marks[0]
        self.run_s = sum(self.slices.samples)
        wl = entry["workload"]
        self.tasks = wl["tasks"]
        self.completed = wl["tasks_completed"]
        self.phases = [(p["name"], p["events"]) for p in entry["phases"]]
        ledger.record("submit", True, self.tasks)
        ledger.record("complete", True, self.completed)
        ledger.record("complete", False, self.tasks - self.completed)
        for slo in entry["slos"]:
            ledger.record("slo", slo["passed"])
            check(slo["passed"], f"drain: SLO failed: {slo['slo']} (value {slo['value']})")
        check(self.completed == self.tasks,
              f"drain: completion ratio {self.completed}/{self.tasks} < 1")


class _SetupDone(Exception):
    """Ends a set-up-only ``run_scenario`` call at its call into the simulator."""


def _setup_only(spec: Any, clock: ScaledClock) -> float:
    """Scaled set-up time of one ``run_scenario`` call, stopped before it runs."""
    from repro.gridsim.grid import Grid
    from repro.scenarios.engine import run_scenario

    def stop(grid: Any, t: float) -> int:
        raise _SetupDone(time.perf_counter())

    original = Grid.run_until
    Grid.run_until = stop
    start = time.perf_counter()
    try:
        run_scenario(spec)
    except _SetupDone as done:
        end = done.args[0]
    finally:
        Grid.run_until = original
    return clock.scaled(end - start)


def run_drain(seed: int, seconds: float, trace: bool) -> Outcome:
    ledger = Ledger()
    # Job streams from the seed, run in turn: a run averages over all of
    # them, and the first runs at least twice (the determinism check).
    specs = [
        campaign_spec(DRAIN_STREAMS * seed + k, DRAIN_TASKS_PER_VO)
        for k in range(DRAIN_STREAMS)
    ]
    clock = ScaledClock()
    recorder: Optional[SpanRecorder] = None
    campaigns: List[Tuple[int, _Campaign]] = []
    if trace:
        # The first stream untraced, before any wrapper is installed, then
        # traced: tracing_overhead_pct is the whole cost of tracing.
        campaigns.append((0, _Campaign(specs[0], ledger, clock)))
        gc.collect()
        recorder = SpanRecorder()
        install_layer_spans(recorder)
        recorder.enabled = True
        campaigns.append((0, _Campaign(specs[0], ledger, clock)))
        recorder.enabled = False
    else:
        count = max(DRAIN_STREAMS + 1, round(seconds / DRAIN_SECONDS_PER_CAMPAIGN))
        for i in range(count):
            campaigns.append((i % DRAIN_STREAMS,
                              _Campaign(specs[i % DRAIN_STREAMS], ledger, clock)))
            gc.collect()
    untraced = [c for _, c in (campaigns[:1] if trace else campaigns)]
    # A set-up lasts tens of milliseconds: time more of them than there
    # are campaigns, so their median holds still.
    setups = [c.setup_s for c in untraced]
    if not trace:
        for i in range(DRAIN_EXTRA_SETUPS):
            setups.append(_setup_only(specs[i % DRAIN_STREAMS], clock))
            gc.collect()

    first_of: Dict[int, _Campaign] = {}
    for k, campaign in campaigns:
        reference = first_of.setdefault(k, campaign)
        check(campaign.phases == reference.phases,
              "drain: same-seed campaigns gave different journal phase counts")
        check(campaign.idle_max >= DRAIN_MIN_IDLE_DEPTH,
              f"drain regime: idle depth max {campaign.idle_max} < {DRAIN_MIN_IDLE_DEPTH}")
        check(campaign.counts["recovered"] > 0,
              "drain regime: no task was resubmitted by Backup & Recovery")
    first = first_of[0]
    resubmits = first.counts["recovered"]

    summary = Summary.of([c.slices for c in untraced], [c.completed for c in untraced],
                         DRAIN_TAIL_Q)
    raw_s = sum(sum(c.slices.raw) for c in untraced)
    report = [
        f"  {len(untraced)} untraced campaign(s) of {first.tasks} tasks, "
        f"{specs[0].horizon_s:g} simulated s each, sliced every {SIM_SLICE_S:g} s; "
        f"{sum(c.wall_s for c in untraced):.2f} s wall, host speed factor "
        f"{clock.factor():.3f}",
        f"  tasks_per_s {summary.ops_per_s:.2f} 1/s (scaled; "
        f"{sum(c.completed for c in untraced) / raw_s:.2f} unscaled); "
        + summary.line("slices, scaled, per campaign"),
        f"  setup_s {median(setups):.4f} s (median of {len(setups)} set-ups)",
        f"  idle depth max {first.idle_max}, resubmits {resubmits}, "
        f"flock forwards {first.counts['flock-forwarded']}, moves {first.counts['moved']}",
        "  phases " + "; ".join(
            f"{name}: " + ", ".join(f"{k}={v}" for k, v in events.items() if v)
            for name, events in first.phases
        ),
    ]
    if recorder is not None:
        traced = campaigns[-1][1]
        evaluations = recorder.layer_totals().get(
            "core.steering.optimizer.evaluate", {"calls": 0})["calls"]
        extras = {
            "gridsim.clock.events": float(traced.events),
            "gridsim.condor.idle_depth_max": float(traced.idle_max),
            "gridsim.condor.flock_forwards_per_task":
                traced.counts["flock-forwarded"] / traced.tasks,
            "core.steering.resubmits": float(traced.counts["recovered"]),
            "core.steering.moves_per_evaluation":
                traced.counts["moved"] / evaluations if evaluations else 0.0,
            "tracing_overhead_pct":
                (summary.ops_per_s / (traced.completed / traced.run_s) - 1.0) * 100.0,
        }
        return Outcome(metrics=extras, ledger=ledger, report=report, recorder=recorder)
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


# ----------------------------------------------------------------------
# recover
# ----------------------------------------------------------------------
def build_partial_campaign(spec: Any, watch: Stopwatch) -> Any:
    """Build the campaign as ``run_scenario`` does and run it to mid-arrival."""
    from repro.config import grid_from_config
    from repro.gae import build_gae
    from repro.gridsim.job import reset_id_counters
    from repro.scenarios.chaos import wire_chaos
    from repro.scenarios.workload import build_submissions

    reset_id_counters()
    grid = grid_from_config(spec.grid, seed=spec.seed)
    gae = build_gae(grid, policy=spec.steering_policy())
    for owner in spec.workload.owners():
        gae.add_user(owner, "bench")
    submissions = build_submissions(spec.workload, spec.seed, spec.horizon_s)
    for sub in submissions:
        gae.sim.at(sub.time_s, lambda job=sub.job: gae.scheduler.submit_job(job),
                   label="bench.submit")
    wire_chaos(gae, spec.chaos, spec.horizon_s, spec.seed)
    gae.start()
    watch.mark()
    # Stop halfway through the arrivals: half the jobs are still to come.
    stop_s = submissions[len(submissions) // 2].time_s
    while gae.sim.now < stop_s:
        grid.run_until(min(stop_s, gae.sim.now + 50.0))
        watch.mark()
    return gae


def _remove(path: str) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


def _size(path: str) -> int:
    return sum(os.path.getsize(path + s) for s in ("", "-wal") if os.path.exists(path + s))


def _barrier_answers(gae: Any, task_ids: List[str]) -> Tuple[Dict[str, Any], Any]:
    """``jobmon.job_status`` per task and the ``system.observability`` consumers block.

    Read from the services behind those RPC methods: going through the
    host would add call statistics and spans to the live system, which
    its next checkpoint would then carry.
    """
    status = {t: gae.monitoring.job_status(t) for t in task_ids}
    return status, gae.observability.snapshot()["consumers"]


class _Cycle:
    """Build the stopped campaign, then: full checkpoint, fixed sim step,
    incremental delta, ``restore_incremental``.

    Every cycle starts from a freshly built system, so cycles repeat the
    same work and their timings form one stationary sample.
    """

    def __init__(self, spec: Any, workdir: str, recorder: Optional[SpanRecorder],
                 ledger: Ledger, clock: ScaledClock) -> None:
        from repro.store.checkpoint import Checkpointer, restore_incremental

        clk = time.perf_counter
        watch = clock.stopwatch()
        gae = build_partial_campaign(spec, watch)
        self.setup_s = watch.stop()
        self.stop_s = gae.sim.now
        base = os.path.join(workdir, "base.sqlite")
        delta = os.path.join(workdir, "delta.sqlite")
        _remove(base)
        _remove(delta)
        if recorder is not None:
            recorder.enabled = True
        span = recorder.span if recorder is not None else (lambda name: nullcontext())
        ckpt = Checkpointer(gae)
        with span("bench.op"), span("store.checkpoint.write"):
            t0 = clk()
            ckpt.checkpoint(base)
            self.raw = [clk() - t0]
        self.full_s = clock.scaled(self.raw[0])
        base_seq = ckpt.last_full_head_seq
        gae.grid.run_until(gae.sim.now + RECOVER_STEP_S)
        self.replayed = gae.observability.journal.head_seq - base_seq
        with span("bench.op"), span("store.checkpoint.write"):
            t0 = clk()
            ckpt.checkpoint_incremental(delta)
            self.raw.append(clk() - t0)
        self.delta_s = clock.scaled(self.raw[1])
        with span("bench.op"), span("store.restore"):
            t0 = clk()
            restored = restore_incremental(base, delta)
            self.raw.append(clk() - t0)
        self.restore_s = clock.scaled(self.raw[2])
        if recorder is not None:
            recorder.enabled = False
        self.bytes = _size(base) + _size(delta)
        ledger.record("checkpoint", True, 2)
        tasks = sorted(t.task_id for job in gae.scheduler.jobs() for t in job.tasks)
        same = _barrier_answers(restored, tasks) == _barrier_answers(gae, tasks)
        ledger.record("restore", same)
        check(same, f"recover: restored answers differ from the live system "
                    f"at t={gae.sim.now:g}")
        restored.stop()
        gae.stop()


def _collected(fn: Any, *args: Any) -> Any:
    """Run *fn* with automatic garbage collection off, then collect.

    A cycle's three timed operations take ~0.1 s each, about as long as a
    full collection of the heap the cycle builds; left on, collections
    land in random operations and dominate their spread (``timeit`` turns
    the collector off for the same reason).
    """
    gc.disable()
    try:
        return fn(*args)
    finally:
        gc.enable()
        gc.collect()


def run_recover(seed: int, seconds: float, trace: bool) -> Outcome:
    ledger = Ledger()
    spec = campaign_spec(seed, RECOVER_TASKS_PER_VO)
    recorder: Optional[SpanRecorder] = None
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="recover-", dir=str(OUT_DIR))
    try:
        clock = ScaledClock()
        count = RECOVER_TRACED_CYCLES if trace else int(seconds * RECOVER_CYCLES_PER_S)
        if trace:
            # The process's first cycle runs slow (first imports and file
            # opens); the traced run's baseline leaves it out.
            _collected(_Cycle, spec, workdir, None, Ledger(), clock)
        start = time.perf_counter()
        cycles = [_collected(_Cycle, spec, workdir, None, ledger, clock)
                  for _ in range(count)]
        wall = time.perf_counter() - start
        traced: List[_Cycle] = []
        if trace:
            # Untraced cycles above ran before any wrapper was installed, so
            # tracing_overhead_pct is the whole cost of tracing.
            recorder = SpanRecorder()
            install_layer_spans(recorder)
            traced = [_collected(_Cycle, spec, workdir, recorder, ledger, clock)
                      for _ in range(RECOVER_TRACED_CYCLES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    check(all(c.replayed > 0 for c in cycles + traced),
          "recover regime: a delta replayed an empty journal tail")
    check(ledger.failed == 0, f"{ledger.failed} failed operations")
    ops = Latencies([s for c in cycles for s in (c.full_s, c.delta_s, c.restore_s)],
                    [s for c in cycles for s in c.raw])
    writes = [s for c in cycles for s in (c.full_s, c.delta_s)]
    restores = [c.restore_s for c in cycles]
    report = [
        f"  campaign of {3 * RECOVER_TASKS_PER_VO} tasks built and stopped mid-arrival "
        f"at t={cycles[0].stop_s:g} s per cycle; {len(cycles)} untraced cycles in "
        f"{wall:.2f} s wall, step {RECOVER_STEP_S:g} simulated s, host speed factor "
        f"{clock.factor():.3f}",
        f"  checkpoint_p50_ms {median(writes) * 1000:.3f} ms (n={len(writes)}), "
        f"restore_p50_ms {median(restores) * 1000:.3f} ms (n={len(restores)}), "
        f"checkpoint_mb {median([c.bytes for c in cycles]) / 1e6:.3f} MB",
        f"  tail replayed {median([c.replayed for c in cycles]):g} events per delta",
    ]
    if recorder is not None:
        persist_s = sum(c.full_s + c.delta_s + c.restore_s for c in cycles)
        traced_s = sum(c.full_s + c.delta_s + c.restore_s for c in traced)
        extras = {
            "store.checkpoint.bytes": median([c.bytes for c in traced]),
            "store.restore.replay_events": median([c.replayed for c in traced]),
            "tracing_overhead_pct":
                (traced_s / len(traced)) / (persist_s / len(cycles)) * 100.0 - 100.0,
        }
        return Outcome(metrics=extras, ledger=ledger, report=report, recorder=recorder)
    windows = ops.split(RECOVER_WINDOWS)
    summary = Summary.of(windows, [len(w.samples) for w in windows], RECOVER_TAIL_Q)
    report.append("  " + summary.line("checkpoint writes and restores, scaled")
                  + f"; {len(ops.raw) / sum(ops.raw):.3f} ops/s unscaled")
    return Outcome(
        metrics={
            "setup_s": median([c.setup_s for c in cycles]),
            "ops_per_s": summary.ops_per_s,
            "op_p50_ms": summary.p50_ms,
            "op_tail_ms": summary.tail_ms,
            "peak_rss_mb": peak_rss_mb(),
        },
        ledger=ledger, report=report,
    )

"""The scheduler's per-site commitment counts and the Subscriber's live
steering indices, checked against the full scans they replace.

The reference scans below are the definitions the counters stand in for:
``rank_sites`` used to count ``_commitments`` per site on every call, and
``active_tasks``/``execution_sites_in_use`` used to walk every
subscription.
"""

from typing import List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.steering.subscriber import Subscriber
from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job, JobState, Task, TaskSpec
from repro.gridsim.clock import Simulator
from repro.gridsim.condor import CondorError
from repro.gridsim.job import ConcreteJobPlan, TaskBinding
from repro.gridsim.scheduler import SchedulingError, SphinxScheduler

SITES = ("siteA", "siteB", "siteC")


def scan_active_tasks(subscriber: Subscriber) -> List[Task]:
    out = []
    for job in subscriber.jobs():
        for task in job.tasks:
            if not task.state.is_terminal or task.state is JobState.MOVED:
                out.append(task)
    return out


def scan_sites_in_use(subscriber: Subscriber) -> Set[str]:
    sites: Set[str] = set()
    for job in subscriber.jobs():
        sites.update(subscriber.subscription(job.job_id).execution_sites)
    return sites


def scan_committed(scheduler: SphinxScheduler, name: str) -> int:
    return sum(1 for s in scheduler._commitments.values() if s == name)


def assert_counters_match_scans(scheduler, subscriber) -> None:
    for name in SITES:
        assert scheduler._committed_per_site[name] == scan_committed(scheduler, name)
    assert subscriber.execution_sites_in_use() == scan_sites_in_use(subscriber)
    assert subscriber.active_tasks() == scan_active_tasks(subscriber)


def assert_round_trips(gae) -> None:
    """Rebuilt scheduler and Subscriber indices equal the scans too."""
    scheduler = SphinxScheduler(Simulator(start=gae.sim.now))
    scheduler.restore_state(gae.scheduler.snapshot_state())
    subscriber = Subscriber()
    subscriber.import_state(gae.steering.subscriber.export_state(), scheduler.job)
    assert_counters_match_scans(scheduler, subscriber)
    assert scheduler._committed_per_site == gae.scheduler._committed_per_site
    assert [t.task_id for t in subscriber.active_tasks()] == [
        t.task_id for t in gae.steering.subscriber.active_tasks()
    ]


def make_gae():
    grid = (
        GridBuilder(seed=3)
        .site("siteA", nodes=2, background_load=0.0)
        .site("siteB", nodes=2, background_load=0.5)
        .site("siteC", nodes=1, background_load=0.0)
        .flock("siteA", "siteB")
        .flock("siteB", "siteA")
        .probe_noise(0.0)
        .build()
    )
    return build_gae(grid, observability=False, telemetry=False).start()


def make_job(n_tasks: int, work: float = 100.0) -> Job:
    tasks = [
        Task(spec=TaskSpec(owner="alice", requested_cpu_hours=work / 3600.0),
             work_seconds=work)
        for _ in range(n_tasks)
    ]
    return Job(tasks=tasks, owner="alice")


OP_KINDS = ("submit",) * 3 + (
    "advance", "advance", "move", "kill", "pause", "resume", "fail", "outage", "restore",
)


@st.composite
def steering_ops(draw):
    kind = draw(st.sampled_from(OP_KINDS))
    if kind == "submit":
        return (kind, draw(st.integers(1, 3)), draw(st.floats(20.0, 300.0)))
    if kind == "advance":
        return (kind, draw(st.floats(0.0, 120.0)))
    if kind in ("outage", "restore"):
        return (kind, draw(st.sampled_from(SITES)))
    return (kind, draw(st.integers(0, 63)))


def apply_op(gae, tasks: List[Task], op) -> None:
    kind = op[0]
    if kind == "submit":
        job = make_job(op[1], op[2])
        try:
            gae.scheduler.submit_job(job)
        except SchedulingError:
            return  # every site down
        tasks.extend(job.tasks)
    elif kind == "advance":
        gae.sim.run_until(gae.sim.now + op[1])
    elif kind == "outage":
        service = gae.grid.execution_services[op[1]]
        if not service.failed:
            service.fail()
    elif kind == "restore":
        service = gae.grid.execution_services[op[1]]
        if service.failed:
            service.recover()
    elif tasks:
        task = tasks[op[1] % len(tasks)]
        if kind == "fail":
            site = gae.scheduler.site_of_task(task.task_id)
            pool = gae.grid.execution_services[site].pool
            if pool.has_task(task.task_id) and not task.state.is_terminal:
                pool.fail_task(task.task_id)
        else:
            getattr(gae.steering.command_processor, kind)(task.task_id)


#: A queued task flocks into siteB's pool after siteB went down; the
#: Backup & Recovery sweep resubmits it, so it has two incarnations.
FLOCK_INTO_DOWN_SITE = [
    ("submit", 1, 20.0), ("submit", 1, 20.0), ("submit", 3, 20.0),
    ("advance", 0.0), ("outage", "siteB"), ("submit", 1, 20.0),
    ("submit", 1, 20.0), ("advance", 30.0), ("submit", 1, 20.0),
]


class TestCountersEqualScans:
    @given(st.lists(steering_ops(), min_size=15, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_random_steering_interleavings(self, ops):
        gae = make_gae()
        tasks: List[Task] = []
        for op in ops:
            try:
                apply_op(gae, tasks, op)
            except CondorError as exc:
                # The duplicate-incarnation crash pinned by
                # TestKnownDefects; the run cannot go on past it.
                assert "already submitted to pool" in str(exc)
                return
            assert_counters_match_scans(gae.scheduler, gae.steering.subscriber)
        assert_round_trips(gae)

    def test_task_live_again_after_completion_is_active(self):
        """The copy in the down site's pool completes first, then the
        resubmitted copy runs: the pruned task must come back."""
        gae = make_gae()
        tasks: List[Task] = []
        seen_completed = set()
        for op in FLOCK_INTO_DOWN_SITE:
            apply_op(gae, tasks, op)
            assert_counters_match_scans(gae.scheduler, gae.steering.subscriber)
            seen_completed |= {t.task_id for t in tasks if t.state is JobState.COMPLETED}
        revived = {t.task_id for t in tasks if t.task_id in seen_completed
                   and t.state is not JobState.COMPLETED}
        assert revived
        assert revived <= {t.task_id for t in gae.steering.subscriber.active_tasks()}


class TestKnownDefects:
    @pytest.mark.xfail(raises=CondorError, strict=True,
                       reason="a resubmitted task flocks back into the down "
                              "site's pool that still holds it")
    def test_flock_into_down_site_then_resubmission(self):
        gae = make_gae()
        tasks: List[Task] = []
        for op in [("advance", 86.0), ("outage", "siteA"), ("submit", 1, 20.0),
                   ("submit", 1, 20.0), ("submit", 3, 20.0), ("advance", 4.0),
                   ("submit", 1, 20.0)]:
            apply_op(gae, tasks, op)


class TestSchedulerCommitmentCounts:
    def test_submit_counts_every_binding(self):
        gae = make_gae()
        gae.scheduler.submit_job(make_job(5))
        assert sum(gae.scheduler._committed_per_site.values()) == 5
        assert_counters_match_scans(gae.scheduler, gae.steering.subscriber)

    def test_flock_arrival_moves_the_count(self):
        gae = make_gae()
        # siteA has two slots; the third and fourth tasks flock to siteB.
        original = gae.scheduler.select_site
        gae.scheduler.select_site = lambda task, exclude=(): "siteA"
        try:
            job = make_job(4, work=500.0)
            gae.scheduler.submit_job(job)
        finally:
            gae.scheduler.select_site = original
        plan = gae.scheduler.plan(job.job_id)
        assert {plan.site_for(t.task_id) for t in job.tasks} == {"siteA", "siteB"}
        assert gae.scheduler._committed_per_site["siteA"] == 2
        assert gae.scheduler._committed_per_site["siteB"] == 2
        assert_counters_match_scans(gae.scheduler, gae.steering.subscriber)

    def test_terminal_states_release_the_count(self):
        gae = make_gae()
        job = make_job(3, work=50.0)
        gae.scheduler.submit_job(job)
        commands = gae.steering.command_processor
        commands.kill(job.tasks[0].task_id)
        assert_counters_match_scans(gae.scheduler, gae.steering.subscriber)
        gae.sim.run_until(500.0)
        assert sum(gae.scheduler._committed_per_site.values()) == 0
        assert_counters_match_scans(gae.scheduler, gae.steering.subscriber)
        assert_round_trips(gae)


class TestSubscriberIndices:
    def test_rebind_moves_site_counts(self):
        gae = make_gae()
        job = make_job(1, work=1000.0)
        gae.scheduler.submit_job(job)
        task = job.tasks[0]
        before = gae.scheduler.site_of_task(task.task_id)
        target = next(s for s in SITES if s != before)
        assert gae.steering.command_processor.move(task.task_id, target).ok
        assert gae.steering.subscriber.execution_sites_in_use() == {target}
        assert_counters_match_scans(gae.scheduler, gae.steering.subscriber)
        assert_round_trips(gae)

    def test_failed_task_resubmitted_stays_active(self):
        gae = make_gae()
        job = make_job(1, work=200.0)
        gae.scheduler.submit_job(job)
        task = job.tasks[0]
        site = gae.scheduler.site_of_task(task.task_id)
        gae.grid.execution_services[site].pool.fail_task(task.task_id)
        assert gae.scheduler.site_of_task(task.task_id) != site
        assert task in gae.steering.subscriber.active_tasks()
        assert_counters_match_scans(gae.scheduler, gae.steering.subscriber)
        gae.sim.run_until(1000.0)
        assert task.state is JobState.COMPLETED
        assert gae.steering.subscriber.active_tasks() == []
        assert_round_trips(gae)

    def test_moved_task_counts_as_active(self):
        sub = Subscriber()
        job = make_job(2)
        sub.receive_plan(ConcreteJobPlan(
            job_id=job.job_id,
            bindings=tuple(TaskBinding(t.task_id, "siteA") for t in job.tasks),
        ), job)
        job.tasks[0].state = JobState.MOVED
        job.tasks[1].state = JobState.KILLED
        assert sub.active_tasks() == [job.tasks[0]] == scan_active_tasks(sub)


class TestCompletedIsFinal:
    def test_completed_task_cannot_be_moved_or_resubmitted(self):
        gae = make_gae()
        job = make_job(1, work=10.0)
        gae.scheduler.submit_job(job)
        task = job.tasks[0]
        gae.sim.run_until(100.0)
        assert task.state is JobState.COMPLETED
        result = gae.steering.command_processor.move(task.task_id)
        assert not result.ok
        with pytest.raises(SchedulingError, match="already completed"):
            gae.scheduler.resubmit_task(task.task_id)
        with pytest.raises(SchedulingError, match="already completed"):
            gae.scheduler.redirect_task(task.task_id, new_site="siteC")
        assert task.state is JobState.COMPLETED
        assert gae.steering.subscriber.active_tasks() == []

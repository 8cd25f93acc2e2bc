"""Property-based tests: batch-pool conservation and ordering invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridsim.clock import Simulator
from repro.gridsim.condor import CondorError, CondorPool
from repro.gridsim.job import JobState, Task, TaskSpec
from repro.gridsim.node import LoadProfile, Node

work_values = st.floats(min_value=1.0, max_value=500.0, allow_nan=False)
priorities = st.integers(min_value=0, max_value=9)
loads = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


class TestPoolProperties:
    @given(
        st.lists(st.tuples(work_values, priorities), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=4),
        loads,
    )
    @settings(max_examples=60, deadline=None)
    def test_every_job_completes_with_exact_work(self, jobs, slots, load):
        sim = Simulator()
        pool = CondorPool(
            sim, "p",
            [Node(name="n", cpu_count=slots, load_profile=LoadProfile.constant(load))],
        )
        tasks = [
            Task(spec=TaskSpec(priority=p), work_seconds=w) for w, p in jobs
        ]
        for t in tasks:
            pool.submit(t)
        sim.run()
        for t in tasks:
            ad = pool.ad(t.task_id)
            assert t.state is JobState.COMPLETED
            assert abs(ad.accrued_work - t.work_seconds) < 1e-6
            # Wall time on node is work / rate.
            assert ad.end_time - ad.start_time >= t.work_seconds - 1e-6

    @given(st.lists(st.tuples(work_values, priorities), min_size=2, max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_single_slot_start_order_respects_priority(self, jobs):
        sim = Simulator()
        blocker = Task(spec=TaskSpec(priority=10), work_seconds=5.0)
        pool = CondorPool(sim, "p", [Node(name="n")])
        pool.submit(blocker)
        tasks = [Task(spec=TaskSpec(priority=p), work_seconds=w) for w, p in jobs]
        for t in tasks:
            pool.submit(t)
        sim.run()
        starts = [(pool.ad(t.task_id).start_time, -t.priority, pool.ad(t.task_id).condor_id) for t in tasks]
        # Start times must be sorted consistently with (priority desc, id asc).
        expected_order = sorted(tasks, key=lambda t: (-t.priority, pool.ad(t.task_id).condor_id))
        actual_order = sorted(tasks, key=lambda t: pool.ad(t.task_id).start_time)
        assert [t.task_id for t in actual_order] == [t.task_id for t in expected_order]

    @given(
        st.lists(work_values, min_size=1, max_size=10),
        st.floats(min_value=1.0, max_value=200.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_pause_resume_preserves_total_work(self, works, pause_at):
        sim = Simulator()
        pool = CondorPool(sim, "p", [Node(name="n")])
        t = Task(spec=TaskSpec(), work_seconds=sum(works))
        pool.submit(t)
        sim.run_until(min(pause_at, sum(works) / 2))
        pool.pause(t.task_id)
        sim.run_until(sim.now + 100.0)
        pool.resume(t.task_id)
        sim.run()
        total = sum(works)
        assert abs(pool.ad(t.task_id).accrued_work - total) < 1e-6 * max(1.0, total)

    @given(st.lists(work_values, min_size=1, max_size=12), st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_slots_never_oversubscribed(self, works, slots):
        sim = Simulator()
        node = Node(name="n", cpu_count=slots)
        pool = CondorPool(sim, "p", [node])
        for w in works:
            pool.submit(Task(spec=TaskSpec(), work_seconds=w))
        while sim.step():
            assert len(node.running_task_ids) <= slots


# ----------------------------------------------------------------------
# Indexed pool state: the bisect-kept idle queue and the free-slot count
# against naive scans, under random verb interleavings on flocking pools.
# ----------------------------------------------------------------------
#: Submits and re-prioritisations dominate, so idle queues grow deep.
OP_KINDS = (
    ("submit",) * 6 + ("set_priority",) * 3
    + ("pause", "resume", "kill", "vacate", "fail", "crash", "advance", "advance")
)


@st.composite
def pool_ops(draw):
    kind = draw(st.sampled_from(OP_KINDS))
    if kind == "submit":
        return (kind, draw(st.integers(0, 2)), draw(work_values), draw(priorities),
                draw(st.sampled_from([1, 1, 1, 2])))
    if kind == "set_priority":
        return (kind, draw(st.integers(0, 63)), draw(priorities))
    if kind == "crash":
        return (kind, draw(st.integers(0, 2)))
    if kind == "advance":
        return (kind, draw(st.floats(min_value=0.0, max_value=150.0)))
    return (kind, draw(st.integers(0, 63)))


op_lists = st.lists(pool_ops(), min_size=20, max_size=80)
pool_shapes = st.lists(
    st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=2),
    min_size=2, max_size=3,
)


class _ScanFlockPool(CondorPool):
    """Reference flock pass: tries every idle ad, with no early exit."""

    def _flock_pass(self):
        still_idle = []
        for ad in self._idle:
            target = self._flock_target(ad.slots_needed)
            if target is None:
                still_idle.append(ad)
                continue
            del self._ads[ad.task_id]
            del self._by_condor_id[ad.condor_id]
            carried = ad.accrued_work if ad.task.checkpointable else 0.0
            target.submit(ad.task, initial_work=carried)
        return still_idle


def _make_pools(sim, shapes, cycle, pool_cls=CondorPool):
    pools = [
        pool_cls(sim, f"p{i}", [
            Node(name=f"p{i}n{j}", cpu_count=cpus) for j, cpus in enumerate(nodes)
        ])
        for i, nodes in enumerate(shapes)
    ]
    # A flocking chain p0 -> p1 -> p2, optionally closed into a cycle.
    for src, dst in zip(pools, pools[1:]):
        src.enable_flocking(dst)
    if cycle:
        pools[-1].enable_flocking(pools[0])
    return pools


def _drive(sim, pools, ops):
    """Apply *ops*; yields the submitted tasks after each operation."""
    tasks = []
    for op in ops:
        kind = op[0]
        if kind == "submit":
            _, i, work, prio, nodes = op
            task = Task(spec=TaskSpec(priority=prio, nodes=nodes), work_seconds=work)
            try:
                pools[i % len(pools)].submit(task)
                tasks.append(task)
            except CondorError:
                pass  # a gang wider than a pool with nowhere to flock
        elif kind == "crash":
            pools[op[1] % len(pools)].crash()
        elif kind == "advance":
            sim.run_until(sim.now + op[1])
        elif tasks:
            task = tasks[op[1] % len(tasks)]
            pool = next(p for p in pools if p.has_task(task.task_id))
            try:
                if kind == "set_priority":
                    pool.set_priority(task.task_id, op[2])
                elif kind == "fail":
                    pool.fail_task(task.task_id)
                else:
                    getattr(pool, kind)(task.task_id)
            except CondorError:
                pass  # the verb is invalid in the task's current state
        yield tasks


def _naive_queue(pool, tasks):
    queued = [
        pool.ad(t.task_id) for t in tasks
        if pool.has_task(t.task_id) and pool.ad(t.task_id).state is JobState.QUEUED
    ]
    return sorted(queued, key=lambda ad: ad.sort_key())


def _naive_ahead(pool, tasks, task_id):
    ad = pool.ad(task_id)
    if ad.state is not JobState.QUEUED:
        return []
    known = [pool.ad(t.task_id) for t in tasks if pool.has_task(t.task_id)]
    running = sorted(
        (a for a in known if a.state is JobState.RUNNING), key=lambda a: a.condor_id
    )
    queued = [a for a in _naive_queue(pool, tasks) if a.sort_key() < ad.sort_key()]
    return running + queued


def _ids(ads):
    return [ad.task_id for ad in ads]


def _assert_indices_match_scans(pool, tasks):
    queue = _naive_queue(pool, tasks)
    assert _ids(pool.queue_snapshot()) == _ids(queue)
    assert pool._free_slots_total() == sum(n.free_slots for n in pool.nodes)
    for t in tasks:
        expected = next((i for i, ad in enumerate(queue) if ad.task_id == t.task_id), -1)
        assert pool.queue_position(t.task_id) == expected
        if pool.has_task(t.task_id):
            assert _ids(pool.tasks_ahead_of(t.task_id)) == _ids(
                _naive_ahead(pool, tasks, t.task_id)
            )


def _observe(pools, tasks):
    """Where each task is and how far along, by submission index."""
    out = []
    for t in tasks:
        (i, pool), = [(i, p) for i, p in enumerate(pools) if p.has_task(t.task_id)]
        ad = pool.status(t.task_id)
        out.append((i, ad.state, ad.accrued_work, pool.queue_position(t.task_id)))
    return out


class TestIndexedPoolProperties:
    @given(pool_shapes, st.booleans(), op_lists)
    @settings(max_examples=150, deadline=None)
    def test_indices_equal_naive_scans(self, shapes, cycle, ops):
        sim = Simulator()
        pools = _make_pools(sim, shapes, cycle)
        for tasks in _drive(sim, pools, ops):
            assert all(sum(p.has_task(t.task_id) for p in pools) == 1 for t in tasks)
            # The same holds for pools rebuilt from their snapshots.
            by_id = {t.task_id: t for t in tasks}
            clones = _make_pools(Simulator(start=sim.now), shapes, cycle)
            for pool, clone in zip(pools, clones):
                _assert_indices_match_scans(pool, tasks)
                clone.restore_state(pool.snapshot_state(), by_id.__getitem__)
                _assert_indices_match_scans(clone, tasks)
                assert clone._free_slots_total() == pool._free_slots_total()

    @given(pool_shapes, st.booleans(), op_lists)
    @settings(max_examples=100, deadline=None)
    def test_early_exit_flock_pass_matches_full_scan(self, shapes, cycle, ops):
        sim, ref_sim = Simulator(), Simulator()
        pools = _make_pools(sim, shapes, cycle)
        ref_pools = _make_pools(ref_sim, shapes, cycle, _ScanFlockPool)
        for tasks, ref_tasks in zip(_drive(sim, pools, ops), _drive(ref_sim, ref_pools, ops)):
            assert _observe(pools, tasks) == _observe(ref_pools, ref_tasks)

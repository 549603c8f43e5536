"""Differential test: the executor runs exactly like the watchdog model.

``ReferenceExecutor`` below is the per-interval executor the current
one replaced: a watchdog process per segment, one heap wake per
interval end and per checkpoint end, and every checkpoint priced by
the device from the task's memory.  Hypothesis runs small traces —
sequential and bag jobs, local, ``auto``, ``nfs`` or ``dmnfs``
storage, with or without host-crash monitors, one to three hosts with
one or two VMs — through :class:`~repro.cluster.platform.CloudPlatform`
once with each executor and requires identical task records,
makespan and queue peak.  Local tasks take the one-wake
path (a host crash settles the segment by walking it to the crash),
shared-storage tasks the per-interval loop with a process-free failure
alarm.  Failures replay per-task
interval lists
(:class:`~repro.failures.injector.TraceReplayInjector`) drawn from the
segment's own boundaries (interval and checkpoint ends, ``te/x + C``,
``te + (x-1)C``, ...) as well as free values, so deadlines land
exactly on wakes.  The last test builds the one case outside the
executor's tie rule: two different tasks' entries at the bit-equal
instant.

``benchmarks/run_des_bench.py`` times the current executor against
``ReferenceExecutor`` (its ``executor`` and ``contended`` sections), so
changing this class means re-recording ``BENCH_des.json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import platform as platform_module
from repro.cluster.config import ClusterConfig
from repro.cluster.platform import CloudPlatform
from repro.cluster.records import TaskRecord
from repro.core.placement import by_priority, resolve_tasks
from repro.sim.engine import Interrupt
from repro.storage.costmodel import checkpoint_cost_local, checkpoint_cost_nfs
from repro.storage.devices import LocalRamdisk
from repro.trace.models import Job, JobType, Task, Trace
from repro.verify.scenarios import make_policy


def _priced_by_memory(device, mem_mb):
    """``begin_checkpoint`` as the devices priced it from memory."""
    if isinstance(device, LocalRamdisk):
        return device.begin_checkpoint(checkpoint_cost_local(mem_mb))
    return device.begin_checkpoint(checkpoint_cost_nfs(mem_mb))


class ReferenceExecutor:
    """The per-interval executor: a watchdog and two wakes per interval."""

    def __init__(self, *, env, scheduler, config, task, intervals,
                 restart_cost, migration_type, device_for_vm, injector,
                 record, **_fast_path_args):
        self.env = env
        self.scheduler = scheduler
        self.config = config
        self.task = task
        self.intervals = intervals
        self.restart_cost = restart_cost
        self.migration_type = migration_type
        self.device_for_vm = device_for_vm
        self.injector = injector
        self.record = record

    def _watchdog(self, victim, delay):
        try:
            yield float(delay)
            victim.interrupt("task-failure")
        except Interrupt:
            return

    def run(self):
        env = self.env
        cfg = self.config
        rec = self.record
        task = self.task
        rec.submit_time = env.now

        x = self.intervals
        length = float(task.te / x)
        committed = 0
        restart_due = 0.0

        while committed < x:
            wait_from = env.now
            vm = yield self.scheduler.acquire(task.task_id, task.mem_mb)
            vm.current_task_id = task.task_id
            rec.queue_wait += env.now - wait_from
            if rec.first_start_time is None:
                rec.first_start_time = env.now
            yield cfg.placement_overhead
            if restart_due > 0.0:
                rec.restart_overhead += restart_due
                yield restart_due
                restart_due = 0.0

            vm.current_process = env.active_process
            device = self.device_for_vm(vm)
            uptime = self.injector.next_failure_in()
            me = env.active_process
            dog = (
                env.process(self._watchdog(me, uptime), name=f"dog-{task.task_id}")
                if uptime != float("inf")
                else None
            )
            last_commit_at = env.now

            try:
                while committed < x:
                    if committed == x - 1:
                        yield length
                        committed = x
                        break
                    yield length
                    cost, token = _priced_by_memory(device, task.mem_mb)
                    try:
                        yield cost
                    finally:
                        device.end_checkpoint(token)
                    committed += 1
                    rec.n_checkpoints += 1
                    rec.checkpoint_overhead += cost
                    last_commit_at = env.now
                if dog is not None:
                    dog.interrupt()
                self.scheduler.release(vm)
                rec.finish_time = env.now
                rec.completed = True
                rec.storage_target = self.migration_type
                return rec
            except Interrupt as itr:
                if dog is not None and dog.is_alive:
                    dog.interrupt()
                rec.n_failures += 1
                rec.n_migrations += 1
                rec.rollback_loss += env.now - last_commit_at
                if itr.cause == "host-failure" and self.migration_type == "A":
                    committed = 0
                self.scheduler.release(vm)
                if rec.n_failures >= cfg.max_failures_per_task:
                    rec.finish_time = env.now
                    rec.completed = False
                    rec.storage_target = self.migration_type
                    return rec
                yield cfg.failure_detection_delay
                restart_due = self.restart_cost

        rec.finish_time = env.now
        rec.completed = True
        rec.storage_target = self.migration_type
        return rec


@contextlib.contextmanager
def _reference_executor():
    current = platform_module.TaskExecutor
    platform_module.TaskExecutor = ReferenceExecutor
    try:
        yield
    finally:
        platform_module.TaskExecutor = current


# -- cases -------------------------------------------------------------------
def _boundaries(te: float, x: int, cost: float) -> list[float]:
    """A segment's wake times from 0 (the per-interval model's float
    chain), then the closed forms the same instants have."""
    length = float(te / x)
    chain, t = [], 0.0
    for k in range(x):
        t += length
        chain.append(t)
        if k < x - 1:
            t += cost
            chain.append(t)
    return chain + [length, length + cost, 2 * length + cost, te,
                    te + (x - 1) * cost]


def _uptime(spec, te: float, x: int, cost: float) -> float:
    kind, value = spec
    if kind == "boundary":
        options = _boundaries(te, x, cost)
        return options[value % len(options)]
    return value


def build_case(case):
    """``(config, trace, policy, mnof_by_priority)`` for one case."""
    config = ClusterConfig(
        n_hosts=case["n_hosts"], vms_per_host=case["vms"],
        storage=case["storage"], placement_overhead=case["placement"],
        failure_detection_delay=case["detection"],
        max_failures_per_task=case["max_failures"],
        host_mtbf=case.get("host_mtbf"),
        host_repair_time=case.get("repair", 120.0))
    policy = make_policy(*case["policy"])
    mnof = {p: case["mnof"] for p in (1, 5, 9)}
    flat = [task for _, _, tasks in case["jobs"] for task in tasks]
    te = np.asarray([t[0] for t in flat])
    mem = np.asarray([t[1] for t in flat])
    prio = np.asarray([t[2] for t in flat], dtype=np.int64)
    _, ckpt, _, intervals = resolve_tasks(
        config.storage, policy, te, mem, by_priority(mnof, prio, 0.0),
        by_priority({}, prio, math.inf))
    jobs, submit, row = [], 0.0, 0
    for job_id, (sequential, gap, tasks) in enumerate(case["jobs"]):
        submit += gap
        built = []
        for index, (t_e, m, p, uptimes) in enumerate(tasks):
            fails = tuple(_uptime(u, t_e, int(intervals[row]),
                                  float(ckpt[row])) for u in uptimes)
            built.append(Task(task_id=row, job_id=job_id, index=index,
                              te=t_e, mem_mb=m, priority=p,
                              n_failures=len(fails), failure_intervals=fails))
            row += 1
        jobs.append(Job(job_id=job_id,
                        job_type=(JobType.SEQUENTIAL if sequential
                                  else JobType.BAG_OF_TASKS),
                        submit_time=submit, tasks=tuple(built)))
    return config, Trace(tuple(jobs)), policy, mnof


def _run(case):
    config, trace, policy, mnof = build_case(case)
    res = CloudPlatform(config, seed=case.get("seed", 0)).run_trace(
        trace, policy, mnof_by_priority=mnof, replay_history=True)
    return ([dataclasses.astuple(r) for r in res.task_records],
            res.makespan, res.peak_queue_length)


uptime_spec = st.one_of(
    st.tuples(st.just("boundary"), st.integers(0, 40)),
    st.tuples(st.just("free"),
              st.floats(0.01, 400.0, allow_nan=False, allow_infinity=False)),
)
task_spec = st.tuples(
    st.one_of(st.sampled_from([1.0, 2.0, 3.0, 10.0, 100.0]),
              st.floats(0.1, 300.0, allow_nan=False, allow_infinity=False)),
    st.sampled_from([10.0, 64.0, 160.0, 240.0, 900.0]),
    st.sampled_from([1, 5, 9]),
    st.lists(uptime_spec, max_size=4),
)
job_spec = st.tuples(
    st.booleans(),
    st.sampled_from([0.0, 0.5, 1.0, 7.25]),
    st.lists(task_spec, min_size=1, max_size=3),
)
cases = st.fixed_dictionaries({
    "storage": st.sampled_from(["local", "auto", "nfs", "dmnfs"]),
    "n_hosts": st.integers(1, 3),
    "vms": st.integers(1, 2),
    "placement": st.sampled_from([0.0, 0.5]),
    "detection": st.sampled_from([0.0, 1.0]),
    "max_failures": st.sampled_from([1, 2, 10_000]),
    "policy": st.one_of(
        st.tuples(st.just("fixed-count"), st.integers(1, 5)),
        st.sampled_from([("optimal", 0.0), ("young", 0.0), ("none", 0.0)])),
    "mnof": st.sampled_from([0.0, 0.5, 2.0, 6.0]),
    "jobs": st.lists(job_spec, min_size=1, max_size=4),
    "host_mtbf": st.sampled_from([None, None, 60.0, 400.0]),
    "repair": st.sampled_from([0.0, 30.0]),
    "seed": st.integers(0, 3),
})

#: Host 0's first crash at seed 0 is this many host MTBFs in.
_FIRST_CRASH = float(np.random.default_rng((0, 0x4057, 0)).exponential(1.0))


def _single_task(te, x, uptime_index):
    """One local task, placed at time 0, failing at boundary
    ``uptime_index`` of its segment."""
    return {
        "storage": "local", "n_hosts": 1, "vms": 1, "placement": 0.0,
        "detection": 1.0, "max_failures": 10_000,
        "policy": ("fixed-count", x), "mnof": 0.0,
        "jobs": [(True, 0.0, [(te, 160.0, 5, [("boundary", uptime_index)])])],
    }


def _host_crash(storage, uptime, te, x=1, max_failures=2, submit=0.0):
    """One task on one host whose crash at ``100 * _FIRST_CRASH``
    lands inside the task's first segment (failure-free if ``uptime``
    is ``None``)."""
    case = _single_task(te, x, 0)
    fails = [] if uptime is None else [("free", uptime)]
    case.update(storage=storage, max_failures=max_failures,
                host_mtbf=100.0, repair=30.0, seed=0,
                jobs=[(True, submit, [(te, 160.0, 5, fails)])])
    return case


#: The crash instant of :func:`_host_crash`, the host's next crash
#: (after a 30 s repair), and the planned checkpoint cost of its 160 MB
#: task on a local ramdisk.
_CRASH = 100 * _FIRST_CRASH
_NEXT_CRASH = (_CRASH + 30.0) + 100 * float(
    np.random.default_rng((0, 0x4057, 0)).exponential(1.0, 2)[1])
_LOCAL_C = float(resolve_tasks(
    "local", make_policy("fixed-count", 3), np.array([1.0]),
    np.array([160.0]), np.zeros(1), np.full(1, math.inf))[1][0])


@settings(max_examples=400, deadline=None)
@given(case=cases)
# The deadline ties the segment's first wake (the first interval end):
# the wake wins, the interval ends, and the failure hits the checkpoint.
@example(case=_single_task(2.0, 2, 0))
# The deadline ties the only wake of a one-interval task: it completes.
@example(case=_single_task(2.0, 1, 0))
# The deadline ties a later wake (the first checkpoint end): the
# checkpoint is lost.
@example(case=_single_task(2.0, 2, 1))
# ... and the final interval end: the task fails at the finish line.
@example(case=_single_task(2.0, 2, 2))
# The same ties on shared storage, in the per-interval loop.
@example(case={**_single_task(2.0, 2, 0), "storage": "nfs"})
@example(case={**_single_task(2.0, 1, 0), "storage": "nfs"})
@example(case={**_single_task(2.0, 2, 1), "storage": "dmnfs"})
@example(case={**_single_task(2.0, 2, 2), "storage": "auto"})
# Two tasks' checkpoints begin at the same instant on NFS, one of them
# at its deadline: the failing checkpoint must end before the other
# prices its own, as the watchdog's earlier heap entry made it.
@example(case={
    "storage": "nfs", "n_hosts": 2, "vms": 2, "placement": 0.0,
    "detection": 0.0, "max_failures": 1, "policy": ("optimal", 0.0),
    "mnof": 2.0, "host_mtbf": None, "repair": 0.0, "seed": 0,
    "jobs": [(False, 0.0, [(1.0, 10.0, 1, []), (1.0, 10.0, 1, []),
                           (3.0, 64.0, 1, [("boundary", 0)])]),
             (False, 1.0, [(1.0, 10.0, 1, [])])]})
# Both tasks start at t=0, the second behind the first's deadline start:
# the second's first interval ends at the first's deadline (1.125),
# inside its checkpoint, and begins its own checkpoint before the
# deadline cuts the first's, as behind the watchdog.
@example(case={
    "storage": "nfs", "n_hosts": 1, "vms": 2, "placement": 0.0,
    "detection": 1.0, "max_failures": 10_000, "policy": ("fixed-count", 2),
    "mnof": 0.0, "host_mtbf": None, "repair": 0.0, "seed": 0,
    "jobs": [(False, 0.0, [(2.0, 10.0, 5, [("free", 1.125)]),
                           (2.25, 10.0, 5, [])])]})
# A host crash while the task waits on its deadline (uptime before the
# interval end), and while it waits on the interval end; both run to
# the failure budget.
@example(case=_host_crash("local", 100 * _FIRST_CRASH + 5.0,
                          100 * _FIRST_CRASH + 50.0))
@example(case=_host_crash("nfs", 100 * _FIRST_CRASH + 5.0,
                          100 * _FIRST_CRASH + 50.0))
@example(case=_host_crash("dmnfs", 100 * _FIRST_CRASH + 80.0,
                          100 * _FIRST_CRASH + 50.0, x=3))
# Host crashes settling a one-wake local segment.  Before the first
# interval end, with the deadline (the segment's one-wake target) after
# the crash:
@example(case=_host_crash("local", _CRASH + 100.0, 2 * (_CRASH + 7.0), x=2))
# Inside the second checkpoint, after one commit, with no task failure:
# one checkpoint counts, and the wipe still restarts from scratch.
@example(case=_host_crash("local", None,
                          1.5 * (_CRASH - 1.5 * _LOCAL_C), x=3))
# In a segment that would have completed (the deadline lies past the
# completion): the retries run past the segment's own stale wake.
@example(case=_host_crash("local", 40.0, 20.0, max_failures=10_000,
                          submit=_CRASH - 10.0))
# A crash that spends the failure budget: the run stops at the crash,
# before the segment's own stale wake.
@example(case=_host_crash("local", _CRASH + 80.0, _CRASH + 50.0,
                          max_failures=1))
# A crash at the bit-equal end of the first interval, armed before the
# task's wake: the wake is in progress, not done.
@example(case=_host_crash("local", None, 2 * _CRASH, x=2))
# ... and at the bit-equal end of the only interval: the task fails at
# its finish line.
@example(case=_host_crash("local", None, _CRASH, x=1))
# The next crash lands at the bit-equal start of a segment (the first
# crash hit the placement wait, before the task registered).
@example(case={**_host_crash("local", 5.0, 2.0, max_failures=10_000),
               "placement": _NEXT_CRASH})
def test_one_wake_segments_match_per_interval_model(case):
    new = _run(case)
    with _reference_executor():
        ref = _run(case)
    assert new == ref


def test_first_wake_tie_completes_the_interval():
    records, *_ = _run(_single_task(2.0, 2, 0))
    (rec,) = [dict(zip([f.name for f in dataclasses.fields(TaskRecord)], r))
              for r in records]
    # Failed once at t=1.0 (the tie), after the interval but before
    # its checkpoint committed: the whole first interval is rolled
    # back; the retry commits the one checkpoint.
    assert rec["n_failures"] == 1 and rec["n_checkpoints"] == 1
    assert rec["rollback_loss"] == 1.0


def test_cross_task_tie_is_outside_the_rule():
    """Two tasks' entries at the bit-equal instant may be served in the
    other order (executor module docstring).

    B fails exactly at A's checkpoint end (1 + C), so B's retry and A's
    completion both land on (1 + C) + 1 while a third job waits.  The
    per-interval model armed A's last wake after B's retry and queues
    B first (two waiting); the one wake was armed at A's segment start,
    so A's release is served first and the queue never holds two.
    Every task record and the makespan still agree.
    """
    case = {
        "storage": "local", "n_hosts": 1, "vms": 2, "placement": 0.0,
        "detection": 1.0, "max_failures": 10_000,
        "policy": ("fixed-count", 2), "mnof": 0.0,
        "jobs": [
            (False, 0.0, [(2.0, 160.0, 5, []),
                          (2.0, 160.0, 5, [("boundary", 1)])]),
            (True, 0.25, [(100.0, 160.0, 5, [])]),
            (True, 1.55, [(100.0, 160.0, 5, [])]),
        ],
    }
    records, makespan, peak = _run(case)
    with _reference_executor():
        ref_records, ref_makespan, ref_peak = _run(case)
    assert (records, makespan) == (ref_records, ref_makespan)
    assert (peak, ref_peak) == (1, 2)

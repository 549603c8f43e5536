"""Differential test: the incremental scheduler grants exactly like a
brute-force one.

``ReferenceScheduler`` below is the straightforward scheduler: every
grant decision re-sums each host's idle-VM memory and every queue
service re-tries every pending request.  Hypothesis drives it and
:class:`~repro.cluster.scheduler.GreedyScheduler` side by side over
random host layouts (different VM counts per host, mixed VM sizes on
one host, ramdisks smaller than VM memory) and random operation
sequences (acquire, release, host down/up, a direct ``vm.assign``
outside the scheduler), and requires the same grants in the same order
— request to ``vm_id`` — and the same queue lengths and peaks.

``benchmarks/run_des_bench.py`` times the current scheduler against
``ReferenceScheduler`` (its ``scheduler`` section), so changing this
class means re-recording ``BENCH_des.json``.
"""

from __future__ import annotations

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.host import PhysicalHost
from repro.cluster.scheduler import GreedyScheduler
from repro.sim.engine import Environment, Event


class ReferenceScheduler:
    """Brute-force reference: O(pending x hosts x VMs) per queue service."""

    def __init__(self, env, hosts):
        self.env = env
        self.hosts = hosts
        self._pending = deque()
        self.peak_queue_length = 0
        self.total_grants = 0

    def _find_vm(self, mem_mb):
        best = None
        best_avail = -1.0
        for host in self.hosts:
            if not host.up:
                continue
            avail = sum(v.mem_mb for v in host.vms if not v.busy)
            if avail <= best_avail:
                continue
            for vm in host.vms:
                if not vm.busy and vm.fits(mem_mb):
                    best = vm
                    best_avail = avail
                    break
        return best

    def acquire(self, task_id, mem_mb):
        ev = Event(self.env)
        vm = self._find_vm(mem_mb)
        if vm is not None and not self._pending:
            vm.assign(task_id)
            self.total_grants += 1
            ev.succeed(vm)
        else:
            self._pending.append((mem_mb, ev))
            self.peak_queue_length = max(self.peak_queue_length,
                                         len(self._pending))
            self._drain()
        return ev

    def release(self, vm):
        vm.release()
        self._drain()

    def set_host_up(self, host, up):
        host.up = up
        if up:
            self._drain()

    def _drain(self):
        remaining = deque()
        while self._pending:
            mem_mb, ev = self._pending.popleft()
            vm = self._find_vm(mem_mb)
            if vm is None:
                remaining.append((mem_mb, ev))
                continue
            vm.assign(-1)
            self.total_grants += 1
            ev.succeed(vm)
        self._pending = remaining

    @property
    def queue_length(self):
        return len(self._pending)


# -- strategies ------------------------------------------------------------
#: (VM memory, ramdisk) shapes; 333.3 makes free-memory sums inexact in
#: binary floating point, and 256.0 ramdisks are smaller than the VM
_VM_SHAPES = [(1024.0, 1024.0), (512.0, 512.0), (1024.0, 256.0),
              (333.3, 333.3), (512.0, 1024.0)]
#: request footprints; 2000.0 never fits any VM
_FOOTPRINTS = [64.0, 250.0, 300.0, 333.3, 500.0, 900.0, 2000.0]

vm_shape = st.sampled_from(_VM_SHAPES)
uniform_host = st.tuples(vm_shape, st.integers(1, 4)).map(
    lambda t: [t[0]] * t[1])
mixed_host = st.lists(vm_shape, min_size=1, max_size=4)
layouts = st.lists(st.one_of(uniform_host, mixed_host),
                   min_size=1, max_size=3)

acquire = st.tuples(st.just("acquire"), st.sampled_from(_FOOTPRINTS))
release = st.tuples(st.just("release"), st.integers(0, 63))
#: acquires and releases are weighted up so queues build and drain
operation = st.one_of(
    acquire, acquire, acquire, release, release,
    st.tuples(st.just("down"), st.integers(0, 7)),
    st.tuples(st.just("up"), st.integers(0, 7)),
    st.tuples(st.just("assign"), st.integers(0, 7), st.integers(0, 3)),
)


class _World:
    """One scheduler over its own copy of a host layout."""

    def __init__(self, cls, layout):
        self.env = Environment()
        self.hosts = []
        vm_id = 0
        for h, shapes in enumerate(layout):
            host = PhysicalHost(host_id=h, mem_mb=1e9)
            for mem, ramdisk in shapes:
                host.add_vm(vm_id, mem, ramdisk)
                vm_id += 1
            self.hosts.append(host)
        self.sched = cls(self.env, self.hosts)
        #: granted VMs still held, in grant order
        self.held = []
        #: ``(request id, vm_id)`` in the order the grants fired
        self.grants = []

    def apply(self, op, request_id):
        kind = op[0]
        if kind == "acquire":
            ev = self.sched.acquire(request_id, op[1])
            ev.callbacks.append(
                lambda e, r=request_id: self._granted(r, e.value))
        elif kind == "release" and self.held:
            self.sched.release(self.held.pop(op[1] % len(self.held)))
        elif kind in ("down", "up"):
            host = self.hosts[op[1] % len(self.hosts)]
            self.sched.set_host_up(host, kind == "up")
        elif kind == "assign":
            host = self.hosts[op[1] % len(self.hosts)]
            vm = host.vms[op[2] % len(host.vms)]
            if not vm.busy:
                vm.assign(10_000 + request_id)
                self.held.append(vm)
        self.env.run()

    def _granted(self, request_id, vm):
        self.grants.append((request_id, vm.vm_id))
        self.held.append(vm)


@settings(max_examples=400, deadline=None)
@given(layout=layouts, ops=st.lists(operation, min_size=20, max_size=80))
# A queue service that stops at the last idle VM must keep a request it
# passed over (900 MB: the idle VM is too small) ahead of the untouched
# tail, so the next large VM goes to it.
@example(layout=[[(1024.0, 1024.0), (512.0, 512.0)]],
         ops=[("acquire", 250.0), ("acquire", 250.0), ("acquire", 900.0),
              ("acquire", 250.0), ("acquire", 250.0), ("release", 1),
              ("release", 0)])
def test_grants_match_brute_force_reference(layout, ops):
    new = _World(GreedyScheduler, layout)
    ref = _World(ReferenceScheduler, layout)
    for i, op in enumerate(ops):
        new.apply(op, i)
        ref.apply(op, i)
        assert new.grants == ref.grants
        assert new.sched.queue_length == ref.sched.queue_length
        assert new.sched.peak_queue_length == ref.sched.peak_queue_length
        for host in new.hosts:
            idle = [v for v in host.vms if not v.busy]
            assert host.n_idle_vms == len(idle)
            expected = sum(v.mem_mb for v in idle) if host.up else 0.0
            assert host.available_mem_mb == expected
    assert new.sched.total_grants == ref.sched.total_grants


def test_host_recovery_serves_the_queue():
    world = _World(GreedyScheduler, [[(1024.0, 1024.0)]])
    world.apply(("down", 0), 0)
    world.apply(("acquire", 100.0), 1)
    assert world.grants == [] and world.sched.queue_length == 1
    world.apply(("up", 0), 2)
    assert world.grants == [(1, 0)] and world.sched.queue_length == 0

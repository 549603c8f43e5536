"""Greedy VM selection with a FIFO pending queue (§2 / §5.1).

The paper's policy: among hosts with an idle VM that fits the task,
pick the host with the maximum available memory (load balancing chosen
"to account for the specular features of Google jobs" — parallelism is
memory-bound).  Tasks that fit nowhere wait in a FIFO pending queue and
are granted VMs as releases occur.

Grant rule
----------
* **FIFO with skip.**  A request is granted at once only when nothing
  is queued; otherwise it joins the queue.  Every queue service walks
  the queue from the head and grants each request that fits, skipping
  (not blocking on) requests that do not, so a small task is never
  head-blocked by a large one.
* **Most free memory.**  A request goes to the first idle VM that fits
  it on the live host with the most free memory (memory of its idle
  VMs).
* **First host wins ties.**  Hosts are compared in pool order and a
  later host must have strictly more free memory to win.

Cost
----
Free memory and idle counts are O(1) reads (:mod:`repro.cluster.host`
keeps them incrementally), so one grant decision costs O(hosts) plus
a scan for the first idle fitting VM on each host that beats the best
so far.  A queue service costs O(hosts) to count the idle VMs on live
hosts and returns at once when there are none; it stops as soon as the
last of them is granted, leaving the rest of the queue untouched.
Within one service a request at least as large as one that already
failed to fit is skipped without a search: fits are monotone in size
and grants only remove capacity.
"""

from __future__ import annotations

import math
from collections import deque

from repro.cluster.host import PhysicalHost, VirtualMachine
from repro.sim.engine import Environment, Event

__all__ = ["GreedyScheduler"]


class GreedyScheduler:
    """Max-available-memory VM scheduler over a fixed host pool."""

    def __init__(self, env: Environment, hosts: list[PhysicalHost]):
        if not hosts:
            raise ValueError("scheduler needs at least one host")
        self.env = env
        self.hosts = hosts
        self._pending: deque[tuple[float, Event]] = deque()
        self.peak_queue_length = 0
        self.total_grants = 0

    # ------------------------------------------------------------------
    def _find_vm(self, mem_mb: float) -> VirtualMachine | None:
        """Idle VM that fits, on the *live* host with maximum available
        memory."""
        best: VirtualMachine | None = None
        best_avail = -1.0
        for host in self.hosts:
            if not host.up or not host.n_idle_vms:
                continue
            avail = host.available_mem_mb
            if avail <= best_avail:
                continue
            for vm in host.vms:
                if not vm.busy and vm.fits(mem_mb):
                    best = vm
                    best_avail = avail
                    break
        return best

    def acquire(self, task_id: int, mem_mb: float) -> Event:
        """Request a VM for a task; the event triggers with the VM.

        Grants are immediate when nothing is queued and an idle fitting
        VM exists, otherwise FIFO with skip (see the module docstring;
        the paper's queue serves "one unprocessed task ... as there are
        available resources").
        """
        if mem_mb <= 0:
            raise ValueError(f"mem_mb must be positive, got {mem_mb}")
        ev = Event(self.env)
        vm = None if self._pending else self._find_vm(mem_mb)
        if vm is not None:
            vm.assign(task_id)
            self.total_grants += 1
            ev.succeed(vm)
        else:
            self._pending.append((mem_mb, ev))
            self.peak_queue_length = max(self.peak_queue_length, len(self._pending))
            self._drain()
        return ev

    def release(self, vm: VirtualMachine) -> None:
        """Return a VM to the pool and serve the queue."""
        vm.release()
        self._drain()

    def notify_capacity_change(self) -> None:
        """Re-run queue service after external capacity changes (a host
        came back up, a VM was released outside :meth:`release`)."""
        self._drain()

    def set_host_up(self, host: PhysicalHost, up: bool) -> None:
        """Mark ``host`` live or down: the one writer of ``host.up``.

        A host coming back serves the queue.  The scheduler caches no
        liveness; every queue service reads ``host.up`` afresh.
        """
        host.up = up
        if up:
            self.notify_capacity_change()

    def _drain(self) -> None:
        """Grant queued requests in FIFO order while resources fit."""
        pending = self._pending
        if not pending:
            return
        idle = sum(host.n_idle_vms for host in self.hosts if host.up)
        if not idle:
            return
        passed: list[tuple[float, Event]] = []
        too_big = math.inf
        while pending:
            mem_mb, ev = pending.popleft()
            vm = self._find_vm(mem_mb) if mem_mb < too_big else None
            if vm is None:
                too_big = min(too_big, mem_mb)
                passed.append((mem_mb, ev))
                continue
            vm.assign(-1)  # placeholder; executor sets the real id
            self.total_grants += 1
            ev.succeed(vm)
            idle -= 1
            if not idle:
                break
        pending.extendleft(reversed(passed))

    @property
    def queue_length(self) -> int:
        """Number of tasks waiting for a VM."""
        return len(self._pending)

"""The pre-incremental greedy scheduler, vendored as the benchmark baseline.

A snapshot of ``src/repro/cluster/scheduler.py`` as of git 95ec703,
before free memory became an O(1) read and the queue service learned
to stop early, kept so ``run_des_bench.py`` can measure the scheduler
speedup against the real predecessor instead of a remembered number.
Two adaptations let it drive the current platform: free memory is
summed over the idle VMs here (the host now answers in O(1), and the
baseline must pay what it paid then), and ``set_host_up`` does what the
platform's host monitor did inline.  Not part of the package —
benchmarks only.
"""

from __future__ import annotations

from collections import deque

from repro.cluster.host import PhysicalHost, VirtualMachine
from repro.sim.engine import Environment, Event

__all__ = ["GreedyScheduler"]


def _available_mem_mb(host: PhysicalHost) -> float:
    """Free memory as the host computed it at the snapshot commit."""
    if not host.up:
        return 0.0
    return sum(v.mem_mb for v in host.vms if not v.busy)


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
            if not host.up:
                continue
            avail = _available_mem_mb(host)
            if avail <= best_avail:
                continue
            for vm in host.vms:
                if not vm.busy and vm.fits(mem_mb):
                    best = vm
                    best_avail = avail
                    break
        return best

    def acquire(self, task_id: int, mem_mb: float) -> Event:
        """Request a VM for a task; the event triggers with the VM."""
        if mem_mb <= 0:
            raise ValueError(f"mem_mb must be positive, got {mem_mb}")
        ev = Event(self.env)
        vm = self._find_vm(mem_mb)
        if vm is not None and not self._pending:
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
        came back up)."""
        self._drain()

    def set_host_up(self, host: PhysicalHost, up: bool) -> None:
        """The snapshot's host monitor: write the flag, drain on recovery."""
        host.up = up
        if up:
            self.notify_capacity_change()

    def _drain(self) -> None:
        """Grant queued requests in FIFO order while resources fit."""
        if not self._pending:
            return
        remaining: deque[tuple[float, Event]] = deque()
        while self._pending:
            mem_mb, ev = self._pending.popleft()
            if ev.triggered:  # cancelled
                continue
            vm = self._find_vm(mem_mb)
            if vm is None:
                remaining.append((mem_mb, ev))
                continue
            vm.assign(-1)  # placeholder; executor sets the real id
            self.total_grants += 1
            ev.succeed(vm)
        self._pending = remaining

    @property
    def queue_length(self) -> int:
        """Number of tasks waiting for a VM."""
        return len(self._pending)

"""Physical hosts and virtual machines.

Placement bookkeeping only: a :class:`VirtualMachine` hosts at most one
task at a time (the paper pins each task to a VM instance with isolated
resources), and a :class:`PhysicalHost` aggregates its VMs' free memory
— the quantity the greedy scheduler maximizes.

The aggregates are incremental: :meth:`VirtualMachine.assign` and
:meth:`~VirtualMachine.release` keep the host's idle-VM count, and a
host whose VMs all have the same size tabulates its free memory by idle
count when VMs are attached, so :attr:`PhysicalHost.available_mem_mb`
and :attr:`PhysicalHost.n_idle_vms` are O(1) reads.  Each table entry
is the same left-to-right sum the idle VMs would give, so free-memory
ties compare exactly as a fresh sum would.  A host with mixed VM sizes
sums its idle VMs on every read.  Attach VMs through
:meth:`PhysicalHost.add_vm` and change ``busy`` only through
``assign``/``release``; both keep the aggregates exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.devices import LocalRamdisk

__all__ = ["PhysicalHost", "VirtualMachine"]


@dataclass
class VirtualMachine:
    """One VM instance: a placement slot with memory and a ramdisk."""

    vm_id: int
    host: "PhysicalHost"
    mem_mb: float
    ramdisk_mb: float
    busy: bool = False
    current_task_id: int | None = None
    #: the executor process currently running here (so the host-failure
    #: monitor can kill every task on a dying host, §2)
    current_process: object | None = None

    def fits(self, mem_mb: float) -> bool:
        """Whether a task with the given footprint fits this VM."""
        return mem_mb <= self.mem_mb and mem_mb <= self.ramdisk_mb

    def assign(self, task_id: int) -> None:
        """Mark the VM busy with ``task_id``."""
        if self.busy:
            raise RuntimeError(f"VM {self.vm_id} is already busy")
        self.busy = True
        self.current_task_id = task_id
        self.host.n_idle_vms -= 1

    def release(self) -> None:
        """Free the VM."""
        if not self.busy:
            raise RuntimeError(f"VM {self.vm_id} is not busy")
        self.busy = False
        self.current_task_id = None
        self.current_process = None
        self.host.n_idle_vms += 1


@dataclass
class PhysicalHost:
    """A physical node hosting several VMs and one local ramdisk."""

    host_id: int
    mem_mb: float
    vms: list[VirtualMachine] = field(default_factory=list)
    ramdisk: LocalRamdisk = field(default=None)  # type: ignore[assignment]
    #: liveness flag, written through
    #: :meth:`~repro.cluster.scheduler.GreedyScheduler.set_host_up`
    up: bool = True
    n_crashes: int = 0
    #: number of idle VMs on this host (live or not)
    n_idle_vms: int = field(default=0, init=False, repr=False, compare=False)
    #: free memory by idle-VM count when every VM has the same memory
    #: (``None`` for mixed sizes)
    _free_by_idle: list | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self) -> None:
        if self.ramdisk is None:
            self.ramdisk = LocalRamdisk(self.host_id)
        self._index()

    def _index(self) -> None:
        """Recompute the idle count and free-memory table from ``vms``."""
        self.n_idle_vms = sum(1 for v in self.vms if not v.busy)
        free = [0]
        for v in self.vms:
            free.append(free[-1] + v.mem_mb)
        same_size = len({v.mem_mb for v in self.vms}) <= 1
        self._free_by_idle = free if same_size else None

    def add_vm(self, vm_id: int, mem_mb: float, ramdisk_mb: float) -> VirtualMachine:
        """Attach a new VM to this host."""
        used = sum(v.mem_mb for v in self.vms)
        if used + mem_mb > self.mem_mb:
            raise ValueError(
                f"host {self.host_id}: adding a {mem_mb} MB VM exceeds "
                f"{self.mem_mb} MB capacity ({used} MB in use)"
            )
        vm = VirtualMachine(vm_id=vm_id, host=self, mem_mb=mem_mb,
                            ramdisk_mb=ramdisk_mb)
        self.vms.append(vm)
        self._index()
        return vm

    @property
    def available_mem_mb(self) -> float:
        """Free memory = memory of idle VMs (the scheduler's criterion);
        a down host offers nothing."""
        if not self.up:
            return 0.0
        free = self._free_by_idle
        if free is not None:
            return free[self.n_idle_vms]
        return sum(v.mem_mb for v in self.vms if not v.busy)

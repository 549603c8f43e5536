"""Stateful storage devices for the DES tier.

Each device tracks how many checkpoints are in flight and adds its
contention to the uncontended cost ``C`` the task's plan quotes for it
(:func:`~repro.core.placement.resolve_tasks`):

* :class:`LocalRamdisk` — per-host; cost flat in the parallel degree
  (Table 2, local rows: it returns ``C``) but checkpoints are lost if
  the host dies and restarting elsewhere pays the migration-type-A
  penalty.
* :class:`NFSServer` — one shared server; cost scales with the number of
  simultaneous writers (Table 2, NFS rows: ``C`` times
  :func:`~repro.storage.costmodel.contention_factor_nfs`).
* :class:`DMNFS` — one NFS server per host with random selection, so
  simultaneous checkpoints rarely collide and the cost stays flat
  (Table 3).  This is the paper's scalability contribution on the
  systems side.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.storage.costmodel import contention_factor_nfs

__all__ = ["DMNFS", "LocalRamdisk", "NFSServer", "StorageDevice"]


class StorageDevice(ABC):
    """A place checkpoints can be written to, with congestion pricing."""

    #: migration type paid when restarting from this device ("A" or "B")
    migration_type: str = "B"
    #: short name for reports
    kind: str = "abstract"

    @abstractmethod
    def begin_checkpoint(self, cost: float) -> tuple[float, object]:
        """Admit one checkpoint whose uncontended price is ``cost``.

        Returns ``(cost_seconds, token)`` — ``cost`` with this device's
        contention applied; the caller must hand ``token`` back to
        :meth:`end_checkpoint` when the checkpoint completes.
        """

    @abstractmethod
    def end_checkpoint(self, token: object) -> None:
        """Mark a previously admitted checkpoint as finished."""

    @property
    @abstractmethod
    def in_flight(self) -> int:
        """Number of concurrently running checkpoints."""


class LocalRamdisk(StorageDevice):
    """Per-host ramdisk: cheap, contention-free, volatile on host death."""

    migration_type = "A"
    kind = "local"

    def __init__(self, host_id: int = 0):
        self.host_id = host_id
        self._active = 0

    def begin_checkpoint(self, cost: float) -> tuple[float, object]:
        self._active += 1
        return cost, self

    def end_checkpoint(self, token: object) -> None:
        if self._active <= 0:
            raise RuntimeError("end_checkpoint without matching begin_checkpoint")
        self._active -= 1

    @property
    def in_flight(self) -> int:
        return self._active


class NFSServer(StorageDevice):
    """A single shared NFS server; writers slow each other down.

    The cost quoted to a new writer reflects the parallel degree *after*
    admission (itself plus everyone already writing), matching how
    Table 2 was measured (all X writers start together).
    """

    migration_type = "B"
    kind = "nfs"

    def __init__(self, server_id: int = 0):
        self.server_id = server_id
        self._active = 0
        self.peak_parallel = 0

    def begin_checkpoint(self, cost: float) -> tuple[float, object]:
        self._active += 1
        self.peak_parallel = max(self.peak_parallel, self._active)
        return cost * contention_factor_nfs(self._active), self

    def end_checkpoint(self, token: object) -> None:
        if self._active <= 0:
            raise RuntimeError("end_checkpoint without matching begin_checkpoint")
        self._active -= 1

    @property
    def in_flight(self) -> int:
        return self._active


class DMNFS(StorageDevice):
    """Distributively-managed NFS: one server per host, chosen at random.

    Contention only arises among writers that picked the same backing
    server; with ``n_servers`` comparable to the host count, collisions
    are rare and the per-checkpoint cost stays near the single-writer
    NFS cost — the Table 3 behaviour.
    """

    migration_type = "B"
    kind = "dmnfs"

    def __init__(self, n_servers: int, rng: np.random.Generator | None = None):
        if n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {n_servers}")
        self.servers = [NFSServer(i) for i in range(n_servers)]
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def begin_checkpoint(self, cost: float) -> tuple[float, object]:
        server = self.servers[int(self.rng.integers(0, len(self.servers)))]
        return server.begin_checkpoint(cost)

    def end_checkpoint(self, token: object) -> None:
        if not isinstance(token, NFSServer):
            raise TypeError(f"expected an NFSServer token, got {token!r}")
        token.end_checkpoint(token)

    @property
    def in_flight(self) -> int:
        return sum(s.in_flight for s in self.servers)

    @property
    def n_servers(self) -> int:
        """Number of backing NFS servers."""
        return len(self.servers)

"""Execution records produced by the platform run."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.metrics.wpr import job_wpr

__all__ = ["JobRecord", "PlatformResult", "TaskRecord"]


@dataclass
class TaskRecord:
    """Everything measured about one task execution."""

    task_id: int
    job_id: int
    priority: int
    te: float
    mem_mb: float
    submit_time: float = 0.0
    first_start_time: float | None = None
    finish_time: float | None = None
    n_failures: int = 0
    n_checkpoints: int = 0
    n_migrations: int = 0
    queue_wait: float = 0.0
    checkpoint_overhead: float = 0.0
    restart_overhead: float = 0.0
    rollback_loss: float = 0.0
    storage_target: str = ""
    completed: bool = False

    @property
    def wallclock(self) -> float:
        """Submission-to-completion duration (the paper's ``Tw``)."""
        if self.finish_time is None:
            raise RuntimeError(f"task {self.task_id} has not finished")
        return self.finish_time - self.submit_time

    @property
    def wpr(self) -> float:
        """Per-task workload-processing ratio."""
        w = self.wallclock
        return min(1.0, self.te / w) if w > 0 else 1.0


@dataclass
class JobRecord:
    """Aggregate record of one job."""

    job_id: int
    job_type: str
    priority: int
    submit_time: float
    tasks: list[TaskRecord] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """Whether every task finished."""
        return bool(self.tasks) and all(t.completed for t in self.tasks)

    @property
    def finish_time(self) -> float:
        """Completion moment of the last task."""
        if not self.completed:
            raise RuntimeError(f"job {self.job_id} has not completed")
        return max(t.finish_time for t in self.tasks)  # type: ignore[arg-type]

    @property
    def wallclock(self) -> float:
        """Submission-to-completion duration of the whole job."""
        return self.finish_time - self.submit_time

    @property
    def wpr(self) -> float:
        """Task-time-weighted WPR (see :mod:`repro.metrics.wpr`)."""
        return job_wpr(
            [t.te for t in self.tasks],
            [t.wallclock for t in self.tasks],
        )


@dataclass
class PlatformResult:
    """Output of :meth:`CloudPlatform.run_trace`."""

    jobs: list[JobRecord]
    makespan: float
    peak_queue_length: int
    #: events processed by the DES engine — equal across identically
    #: seeded runs, a cheap whole-run determinism probe
    n_events: int = 0

    @property
    def task_records(self) -> list[TaskRecord]:
        """Flat list of all task records."""
        return [t for j in self.jobs for t in j.tasks]

    def job_wprs(self) -> np.ndarray:
        """Per-job WPR array (completed jobs only)."""
        return np.asarray([j.wpr for j in self.jobs if j.completed])

    def job_wallclocks(self) -> np.ndarray:
        """Per-job wall-clock array (completed jobs only)."""
        return np.asarray([j.wallclock for j in self.jobs if j.completed])

    def mean_wpr(self) -> float:
        """Average job WPR."""
        wprs = self.job_wprs()
        if wprs.size == 0:
            raise RuntimeError("no job completed")
        return float(wprs.mean())

    def by_priority(self) -> dict[int, list[JobRecord]]:
        """Completed jobs grouped by priority."""
        out: dict[int, list[JobRecord]] = {}
        for j in self.jobs:
            if j.completed:
                out.setdefault(j.priority, []).append(j)
        return dict(sorted(out.items()))

"""Algorithm 1 — adaptive checkpointing — and the Theorem 2 rule.

:class:`AdaptiveCheckpointer` is the runtime companion of a task: it
owns the countdown to the next checkpoint, recomputes positions when
the task's MNOF changes (a priority change re-parameterizes the failure
law), and never recomputes otherwise — which Theorem 2 proves is
optimal, since with an unchanged MNOF the re-optimized count is exactly
the old count minus one.

The class is the runtime view of Algorithm 1 for a caller that runs a
task itself: three entry points (:meth:`next_checkpoint_in`,
:meth:`on_checkpoint`, :meth:`on_mnof_change`) mirror its countdown
loop without the polling sleep.  ``examples/quickstart.py`` walks one
task through it, and the tests check Theorem 2 on it.  The simulation
tiers do not drive it: they compute the same plans in closed form
(:func:`repro.core.simulate.simulate_task_two_phase` is the mid-run
replan of lines 9–12).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.formulas import optimal_interval_count_int

__all__ = ["AdaptiveCheckpointer", "CheckpointPlan", "theorem2_next_count"]


def theorem2_next_count(current_count: int) -> int:
    """Theorem 2: with MNOF unchanged, the optimal interval count for the
    remaining work after one checkpoint is ``X* - 1`` (floored at 1)."""
    if current_count < 1:
        raise ValueError(f"interval count must be >= 1, got {current_count}")
    return max(1, current_count - 1)


@dataclass(frozen=True)
class CheckpointPlan:
    """A snapshot of the checkpointer's schedule (for logging/tests)."""

    remaining_te: float
    interval_count: int
    interval_length: float
    mnof: float


class AdaptiveCheckpointer:
    """Runtime state machine for Algorithm 1.

    Parameters
    ----------
    te:
        Predicted productive execution time of the task, seconds.
    checkpoint_cost:
        Per-checkpoint cost ``C`` on the selected storage target.
    mnof:
        Initial MNOF estimate ``E(Y)`` for the whole task.
    min_interval:
        Optional floor on the interval length (guards against absurdly
        frequent checkpoints when MNOF is overestimated).

    Notes
    -----
    ``mnof`` always refers to the expected failures over the *remaining*
    execution; the proof of Theorem 2 scales it linearly with remaining
    work (``E_k(Y) = Tr(k)/Tr(0) * MNOF``), which :meth:`on_checkpoint`
    reproduces.
    """

    def __init__(
        self,
        te: float,
        checkpoint_cost: float,
        mnof: float,
        min_interval: float = 0.0,
    ):
        if te <= 0:
            raise ValueError(f"te must be positive, got {te}")
        if checkpoint_cost <= 0:
            raise ValueError(f"checkpoint cost must be positive, got {checkpoint_cost}")
        if mnof < 0:
            raise ValueError(f"mnof must be >= 0, got {mnof}")
        if min_interval < 0:
            raise ValueError(f"min_interval must be >= 0, got {min_interval}")
        self.total_te = float(te)
        self.checkpoint_cost = float(checkpoint_cost)
        self.min_interval = float(min_interval)
        self._remaining = float(te)
        self._mnof = float(mnof)
        self._mnof_per_second = self._mnof / self.total_te
        self.recompute_count = 0
        self.checkpoints_taken = 0
        self._replan()

    # ------------------------------------------------------------------
    def _replan(self) -> None:
        """Recompute ``X*`` for the remaining work (Formula (3))."""
        x = optimal_interval_count_int(
            max(self._remaining, 1e-9), self._mnof, self.checkpoint_cost
        )
        x = int(x)
        if self.min_interval > 0:
            x = min(x, max(1, int(self._remaining / self.min_interval)))
        self._count = max(1, x)
        self._interval = self._remaining / self._count
        self.recompute_count += 1

    # ------------------------------------------------------------------
    @property
    def remaining_te(self) -> float:
        """Productive work still to do, seconds."""
        return self._remaining

    @property
    def mnof(self) -> float:
        """Current MNOF estimate for the remaining execution."""
        return self._mnof

    @property
    def plan(self) -> CheckpointPlan:
        """Current schedule snapshot."""
        return CheckpointPlan(
            remaining_te=self._remaining,
            interval_count=self._count,
            interval_length=self._interval,
            mnof=self._mnof,
        )

    @property
    def done(self) -> bool:
        """Whether all productive work has been accounted for."""
        return self._remaining <= 1e-9

    def next_checkpoint_in(self) -> float:
        """Productive seconds until the next checkpoint should fire.

        Returns ``inf`` when no further interior checkpoint is planned
        (the final interval runs to completion uncheckpointed).
        """
        if self.done or self._count <= 1:
            return float("inf")
        return self._interval

    # ------------------------------------------------------------------
    def on_checkpoint(self) -> CheckpointPlan:
        """A checkpoint completed after one full interval of progress.

        Applies Theorem 2: the remaining work shrinks by one interval
        and the count decrements — *no* re-optimization unless MNOF
        changed in between (handled by :meth:`on_mnof_change`).
        """
        if self._count <= 1:
            raise RuntimeError("no interior checkpoint was scheduled")
        self.checkpoints_taken += 1
        self._remaining = max(0.0, self._remaining - self._interval)
        # MNOF scales with the remaining work (proof of Theorem 2).
        self._mnof = self._mnof_per_second * self._remaining
        self._count = theorem2_next_count(self._count)
        # interval length stays Te_r / X(*) = unchanged by Theorem 2
        if self._count >= 1 and self._remaining > 0:
            self._interval = self._remaining / self._count
        return self.plan

    def on_mnof_change(self, new_total_mnof: float) -> CheckpointPlan:
        """The task's failure regime changed (e.g. priority retuned).

        ``new_total_mnof`` is the new expected failure count *as if the
        whole task ran under the new regime*; it is rescaled to the
        remaining work and positions are recomputed (Algorithm 1,
        lines 9–12).
        """
        if new_total_mnof < 0:
            raise ValueError(f"mnof must be >= 0, got {new_total_mnof}")
        self._mnof_per_second = float(new_total_mnof) / self.total_te
        self._mnof = self._mnof_per_second * self._remaining
        self._replan()
        return self.plan

    def on_progress_to_completion(self) -> None:
        """The final interval completed; mark the task done."""
        self._remaining = 0.0
        self._mnof = 0.0
        self._count = 1
        self._interval = 0.0

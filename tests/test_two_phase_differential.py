"""Differential test: the two-phase kernel on the scalar closed form.

``reference_two_phase`` below is the Fig. 14 kernel as it ran on its
own ``_Grid`` arithmetic (positions found by a float floor with a
``1e-12`` fudge, failures charged ``(u + R) + d``), vendored verbatim
apart from its name.  :func:`simulate_task_two_phase` now walks
:func:`simulate_task`'s closed form with an integer switch rule; on the
same generator it must count the same failures and checkpoints, finish
the same tasks and leave the generator in the same state.  Wallclocks
may differ by a few ulp: the sums associate differently, and each
failure with a restart delay can add one, so the cases stop after a
few segments and hypothesis runs a fixed set of them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulate import TaskOutcome, simulate_task_two_phase
from repro.failures.distributions import (
    Distribution,
    Empirical,
    Exponential,
    Mixture,
    Pareto,
    Weibull,
)


class _Grid:
    """Equidistant checkpoint grid anchored at ``anchor``.

    Interior positions sit at ``anchor + k * length`` for
    ``k = 1 .. count - 1`` (the final interval ends at ``te`` with no
    trailing checkpoint).  Provides the closed-form uptime arithmetic
    shared by all scalar simulations.
    """

    __slots__ = ("anchor", "length", "count", "te", "c")

    def __init__(self, anchor: float, te: float, count: int, c: float):
        self.anchor = anchor
        self.te = te
        self.count = max(1, int(count))
        self.length = (te - anchor) / self.count
        self.c = c

    def positions_after(self, live: float) -> int:
        """Number of interior positions strictly greater than ``live``."""
        if self.count <= 1:
            return 0
        # position index k satisfies anchor + k*length > live, k <= count-1
        k_min = int(np.floor((live - self.anchor) / self.length + 1e-12)) + 1
        return max(0, self.count - max(k_min, 1))

    def next_position(self, live: float) -> float | None:
        """First interior position strictly greater than ``live``."""
        n = self.positions_after(live)
        if n == 0:
            return None
        k = self.count - n
        return self.anchor + k * self.length

    def time_to_finish(self, live: float) -> float:
        """Uninterrupted time from ``live`` to completion, paying ``c``
        per remaining interior checkpoint."""
        return (self.te - live) + self.c * self.positions_after(live)

    def time_to_reach(self, live: float, target: float) -> float:
        """Uninterrupted time from ``live`` to progress ``target``
        (checkpoints at positions ≤ ``target`` are written en route)."""
        between = self.positions_after(live) - self.positions_after(target)
        return (target - live) + self.c * between

    def commits_within(self, live: float, uptime: float) -> tuple[int, float]:
        """How many checkpoints commit while running ``uptime`` seconds
        from ``live`` (failure at the end — no completion).

        Returns ``(committed, new_saved)``; ``new_saved`` is only
        meaningful when ``committed > 0``.
        """
        nxt = self.next_position(live)
        if nxt is None:
            return 0, live
        g1 = (nxt - live) + self.c
        if uptime < g1:
            return 0, live
        cyc = self.length + self.c
        extra = int((uptime - g1) // cyc)
        committed = min(1 + extra, self.positions_after(live))
        new_saved = nxt + (committed - 1) * self.length
        return committed, new_saved


def reference_two_phase(
    te: float,
    checkpoint_cost: float,
    restart_cost: float,
    dist_phase1: Distribution,
    dist_phase2: Distribution,
    mnof_phase1: float,
    mnof_phase2: float,
    rng: np.random.Generator,
    switch_fraction: float = 0.5,
    adaptive: bool = True,
    restart_delay: float = 0.0,
    max_segments: int = 100_000,
) -> TaskOutcome:
    """Simulate a task whose failure regime changes mid-execution.

    This drives the Fig. 14 experiment: once the task's *live* progress
    first reaches ``switch_fraction * te``, its priority is retuned —
    the failure-interval law switches from ``dist_phase1`` to
    ``dist_phase2`` and the renewal clock resets (the preemption process
    restarts under the new priority).

    ``adaptive=True`` implements Algorithm 1 lines 9–12: at the switch
    the runtime takes an immediate checkpoint (anchoring the new grid;
    one extra ``C`` is charged) and recomputes the interval count from
    Formula (3) with the new MNOF scaled to the remaining work.
    ``adaptive=False`` keeps the phase-1 grid for the whole run — the
    static baseline, whose intervals are mis-sized for the new regime.

    ``mnof_*`` are the *believed* whole-task MNOF values under each
    regime; failure draws always use the true ``dist_*``.
    """
    from repro.core.formulas import optimal_interval_count_int

    if te <= 0:
        raise ValueError(f"te must be positive, got {te}")
    if not 0 < switch_fraction < 1:
        raise ValueError(f"switch_fraction must lie in (0,1), got {switch_fraction}")
    if checkpoint_cost <= 0:
        raise ValueError(f"checkpoint cost must be positive, got {checkpoint_cost}")

    switch_at = switch_fraction * te
    x1 = max(1, int(optimal_interval_count_int(te, mnof_phase1, checkpoint_cost)))
    grid = _Grid(0.0, te, x1, checkpoint_cost)

    saved = 0.0  # committed progress (rollback target)
    live = 0.0  # current uncommitted progress
    wall = 0.0
    fails = 0
    ckpts = 0
    in_phase2 = False

    for _ in range(max_segments):
        dist = dist_phase2 if in_phase2 else dist_phase1
        u = float(dist.sample(rng, 1)[0])

        if not in_phase2 and live < switch_at:
            w_cross = grid.time_to_reach(live, switch_at)
            t_fin = grid.time_to_finish(live)
            # Completion before the switch is impossible by construction
            # (switch_at < te), so only failure-vs-crossing competes.
            if u < min(w_cross, t_fin):
                committed, new_saved = grid.commits_within(live, u)
                if committed:
                    saved = new_saved
                    ckpts += committed
                live = saved
                wall += u + restart_cost + restart_delay
                fails += 1
                continue
            # Crossed into phase 2 uninterrupted.
            committed = grid.positions_after(live) - grid.positions_after(switch_at)
            if committed:
                saved = grid.next_position(live) + (committed - 1) * grid.length  # type: ignore[operator]
                ckpts += committed
            wall += w_cross
            live = switch_at
            in_phase2 = True
            if adaptive:
                # Immediate checkpoint anchors the recomputed grid.
                wall += checkpoint_cost
                ckpts += 1
                saved = live
                remaining = te - saved
                mnof_rem = mnof_phase2 * remaining / te
                x2 = max(
                    1,
                    int(
                        optimal_interval_count_int(
                            remaining, mnof_rem, checkpoint_cost
                        )
                    ),
                )
                grid = _Grid(saved, te, x2, checkpoint_cost)
            continue

        # Single-regime segment (phase 2, or phase 1 past the switch).
        t_fin = grid.time_to_finish(live)
        if u >= t_fin:
            wall += t_fin
            ckpts += grid.positions_after(live)
            return TaskOutcome(
                te=te,
                wallclock=wall,
                n_failures=fails,
                n_checkpoints=ckpts,
                intervals=x1,
                completed=True,
            )
        committed, new_saved = grid.commits_within(live, u)
        if committed:
            saved = new_saved
            ckpts += committed
        live = saved
        wall += u + restart_cost + restart_delay
        fails += 1

    return TaskOutcome(
        te=te,
        wallclock=wall,
        n_failures=fails,
        n_checkpoints=ckpts,
        intervals=x1,
        completed=False,
    )


LAWS = (
    Exponential(1 / 40.0),
    Exponential(1 / 400.0),
    Exponential(1e-6),
    Mixture([Exponential(1 / 5.0), Pareto(30.0, 1.5)], [0.7, 0.3]),
    Empirical([3.0, 8.0, 15.0, 60.0, 400.0]),
    Weibull(0.7, 25.0),
)


def run_pair(*args, seed, **kwargs):
    """The kernel and the reference, each on a fresh generator from
    ``seed``; returns both outcomes and both generator states."""
    out = []
    for kernel in (simulate_task_two_phase, reference_two_phase):
        rng = np.random.default_rng(seed)
        res = kernel(*args, rng=rng, **kwargs)
        out.append((res, rng.bit_generator.state))
    return out


def assert_same(pair):
    (new, new_state), (ref, ref_state) = pair
    assert new.n_failures == ref.n_failures
    assert new.n_checkpoints == ref.n_checkpoints
    assert new.completed == ref.completed
    assert new.intervals == ref.intervals
    assert new_state == ref_state
    assert abs(new.wallclock - ref.wallclock) <= 4 * np.spacing(ref.wallclock)


@st.composite
def _cases(draw):
    te = draw(st.floats(1.0, 3000.0))
    c = draw(st.floats(0.01, 20.0))
    return dict(
        te=te,
        checkpoint_cost=c,
        restart_cost=draw(st.floats(0.0, 20.0)),
        dist_phase1=draw(st.sampled_from(LAWS)),
        dist_phase2=draw(st.sampled_from(LAWS)),
        mnof_phase1=draw(st.floats(0.0, 60.0)),
        mnof_phase2=draw(st.floats(0.0, 60.0)),
        switch_fraction=draw(st.one_of(
            st.sampled_from((0.25, 0.5, 0.75)), st.floats(0.01, 0.99))),
        adaptive=draw(st.booleans()),
        restart_delay=draw(st.one_of(
            st.sampled_from((0.0, 0.7, 1.5, 13.37)), st.floats(0.0, 30.0))),
        max_segments=draw(st.integers(1, 11)),
    )


class TestTwoPhaseMatchesGrid:
    @given(case=_cases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_tasks(self, case, seed):
        assert_same(run_pair(**case, seed=seed))

    @given(case=_cases(), half=st.integers(1, 20),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_switch_on_a_grid_position(self, case, half, seed):
        """``switch_fraction = 0.5`` with an even ``x1``: the switch
        falls on position ``x1 / 2`` and the integer rule counts it
        written before the switch, as the fudged floor did."""
        te, c = case["te"], case["checkpoint_cost"]
        # Formula (3) gives x* = 2 * half for this MNOF.
        case.update(switch_fraction=0.5,
                    mnof_phase1=2 * c * (2 * half) ** 2 / te)
        assert_same(run_pair(**case, seed=seed))

    def test_fig14_shaped_tasks(self):
        """Unit costs, long tasks and the calm/hot regimes of Fig. 14,
        run to completion."""
        rng = np.random.default_rng(14)
        for i in range(300):
            te = float(rng.uniform(50.0, 5000.0))
            scale1, scale2 = rng.uniform(20.0, 20000.0, 2)
            mnof1, mnof2 = te / scale1, te / scale2
            for adaptive in (True, False):
                assert_same(run_pair(
                    te, 1.0, 1.0, Exponential(1 / scale1),
                    Exponential(1 / scale2), mnof1, mnof2,
                    adaptive=adaptive, seed=i,
                ))

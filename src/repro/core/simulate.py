"""Monte-Carlo execution of checkpointed tasks under renewal failures.

This is the fast evaluation tier used for the paper's large-scale
comparisons (Table 6, Figs. 9–13): hundreds of thousands of tasks are
simulated in a few vectorized NumPy passes, one loop iteration per
*uptime segment* (the run between two consecutive failures) across all
still-active tasks.

Execution model (matching §3 of the paper)
------------------------------------------
A task of productive length ``Te`` runs with ``x`` equidistant
intervals of length ``L = Te / x``; after each of the first ``x - 1``
intervals a checkpoint costing ``C`` seconds is written.  The failure
clock measures *uninterrupted execution time* (productive work plus
checkpoint writes); when it fires, the task loses all progress since
the last committed checkpoint, pays the restart cost ``R`` plus an
optional scheduling delay ``d``, and resumes from the checkpoint.
Because committed progress is always a multiple of ``L``, each uptime
segment has a closed form, and every blocking-checkpoint kernel here
uses exactly this one:

* time to finish from checkpoint ``m``: ``(x-1-m)(L+C) + L`` — an
  uptime ``u`` at least that long completes the task;
* otherwise the failure commits ``min(u // (L+C), x-1-m)`` checkpoints
  and charges ``u + (R + d)`` of wall-clock.

:func:`simulate_task` is the scalar form, driven by an injector.
:func:`simulate_task_two_phase` (Fig. 14's mid-run priority change)
walks the same form twice: up to the switch at ``s = f * Te`` on the
first grid, whose last position at or before ``s`` is the integer
``min(int(f * x), x - 1)``, then on the rest of the task.
:func:`simulate_task_async_checkpoints` is the non-blocking variant:
writes overlap execution and a failure during one voids it, but a
failure is charged ``u + (R + d)`` there too.  The
batch kernels share a single compacted round loop,
:func:`_simulate_blocked_core`, and differ only in their *uptime
source*: :func:`simulate_tasks_blocked` draws from per-id distribution
laws, :func:`simulate_tasks_scaled` from per-task exponential scales,
and :func:`simulate_tasks_replay` reads a recorded interval matrix.
On identical uptimes all of them agree bit-for-bit; the DES tier adds
placement and storage contention on top of the same semantics.

The loop scans its rounds in *spans* of several blocks at once: the
closed form above becomes cumulative sums down each task's column, so
the long straggler tail (a few tasks failing up to ``max_segments``
times) costs a few NumPy calls per span rather than per round.  Blocks
drawn past a span's first finish are discarded and the generator is
rewound to where block-by-block stepping would leave it, so every
draw, and every result, is the one a round-at-a-time loop produces.
The scan keeps its passes over the span few: ``u // (L+C)`` is taken
as the floor of the rounded quotient, recomputed by ``//`` only where
that quotient is whole; spans that commit no checkpoint find their
finishes by column maximum; and spans without a finish sum their
wallclock by a row-by-row reduce instead of a ``cumsum``, working in
place on the matrix the uptime source returns.  One call may carry
several *lanes*, runs of the same tasks on the same uptimes that
differ only in their restart charges: they share the whole scan and
keep one wallclock each.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass

import numpy as np

from repro.failures.distributions import Distribution
from repro.metrics.wpr import wpr_array, wpr_ratio

__all__ = [
    "SimulationResult",
    "TaskOutcome",
    "simulate_task",
    "simulate_task_two_phase",
    "simulate_tasks_blocked",
    "simulate_tasks_replay",
    "simulate_tasks_scaled",
]

#: Longest block of segment rounds the batch kernels take from their
#: uptime source at once.  Fixed: redraw results depend on it (a
#: different block size consumes the RNG stream in a different order,
#: like a different seed), so it is part of the model's determinism
#: key rather than a caller option.  Replay results do not depend on it.
DEFAULT_BLOCK_ROUNDS = 8

#: Most uptimes one span of :func:`_simulate_blocked_core` draws at
#: once: a span holds at most ``_SPAN_UPTIMES // (block_rounds * live)``
#: blocks (and never fewer than one).  A speed and memory bound only:
#: the span scan leaves the uptime stream exactly where block-by-block
#: stepping would, so results do not depend on it.
_SPAN_UPTIMES = 8192


@dataclass(frozen=True)
class TaskOutcome:
    """Result of one simulated task execution."""

    te: float
    wallclock: float
    n_failures: int
    n_checkpoints: int
    intervals: int
    completed: bool

    @property
    def wpr(self) -> float:
        """Workload-processing ratio ``Te / Tw`` (Eq. 9 for one task).

        Uses the canonical clamped definition shared with
        :mod:`repro.metrics.wpr`: the ratio is clamped to ``[0, 1]``
        and ``wallclock <= 0`` maps to ``0.0``.
        """
        return wpr_ratio(self.te, self.wallclock)


def simulate_task(
    te: float,
    intervals: int,
    checkpoint_cost: float,
    restart_cost: float,
    injector,
    restart_delay: float = 0.0,
    max_segments: int = 100_000,
) -> TaskOutcome:
    """Scalar reference simulation of a single task.

    ``injector`` must expose ``next_failure_in() -> float`` (see
    :mod:`repro.failures.injector`); ``inf`` means no further failures.
    """
    if not te > 0:
        raise ValueError(f"te must be positive, got {te}")
    if intervals < 1:
        raise ValueError(f"intervals must be >= 1, got {intervals}")
    if not (checkpoint_cost >= 0 and restart_cost >= 0 and restart_delay >= 0):
        raise ValueError("costs and delays must be non-negative (no nan)")
    x = int(intervals)
    length = te / x
    cycle = length + checkpoint_cost
    m = 0  # committed checkpoint index
    wall = 0.0
    fails = 0
    for _ in range(max_segments):
        u = injector.next_failure_in()
        t_fin = (x - 1 - m) * cycle + length
        if u >= t_fin:
            wall += t_fin
            return TaskOutcome(
                te=te,
                wallclock=wall,
                n_failures=fails,
                n_checkpoints=x - 1,
                intervals=x,
                completed=True,
            )
        j = min(int(u // cycle), x - 1 - m)
        m += j
        fails += 1
        wall += u + (restart_cost + restart_delay)
    return TaskOutcome(
        te=te,
        wallclock=wall,
        n_failures=fails,
        n_checkpoints=m,
        intervals=x,
        completed=False,
    )


@dataclass
class SimulationResult:
    """Batched outcome arrays of the batch kernels.

    All arrays share one entry per task, in input order.
    """

    te: np.ndarray
    wallclock: np.ndarray
    n_failures: np.ndarray
    intervals: np.ndarray
    completed: np.ndarray

    @property
    def wpr(self) -> np.ndarray:
        """Per-task workload-processing ratio ``Te / Tw`` under the
        canonical clamped semantics of :mod:`repro.metrics.wpr`."""
        return wpr_array(self.te, self.wallclock)

    @property
    def n_tasks(self) -> int:
        """Number of simulated tasks."""
        return int(self.te.size)

    def mean_wpr(self) -> float:
        """Average per-task WPR."""
        return float(np.mean(self.wpr))

    def summary(self) -> dict[str, float]:
        """Scalar statistics of the batch (the cross-tier comparables).

        Means and standard deviations of the wallclock / WPR / failure
        count distributions plus the completion rate — exactly the
        quantities the verification subsystem holds against tolerances.
        ``n_truncated`` counts tasks abandoned by the ``max_segments``
        safety bound (``completed == False``); a non-zero value flags a
        pathological scenario rather than a statistical outcome.
        """
        return {
            "n_tasks": float(self.n_tasks),
            "mean_wallclock": float(np.mean(self.wallclock)),
            "std_wallclock": float(np.std(self.wallclock)),
            "mean_wpr": float(np.mean(self.wpr)),
            "mean_failures": float(np.mean(self.n_failures)),
            "std_failures": float(np.std(self.n_failures)),
            "total_failures": float(np.sum(self.n_failures)),
            "completion_rate": float(np.mean(self.completed)),
            "n_truncated": float(np.sum(~self.completed)),
        }

    def digest(self) -> str:
        """Bit-level SHA-256 fingerprint of the per-task outcome arrays.

        Two runs produce the same digest iff every wallclock, failure
        count, interval count and completion flag matches exactly —
        the scalar reference tier is golden-pinned on this."""
        import hashlib

        h = hashlib.sha256()
        for arr, dtype in (
            (self.te, "<f8"),
            (self.wallclock, "<f8"),
            (self.n_failures, "<i8"),
            (self.intervals, "<i8"),
            (self.completed, "u1"),
        ):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        return h.hexdigest()


def _validate_batch(
    te, intervals, checkpoint_cost, restart_cost, state, restart_delay
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Broadcast and validate the shared per-task parameter arrays.

    ``state`` is the per-task uptime-source state (see
    :func:`_simulate_blocked_core`); it is broadcast with the rest and
    returned contiguous, in its own dtype.  ``restart_cost`` may be an
    ``(n, L)`` matrix, one column per *lane* (see
    :func:`_simulate_blocked_core`); it is returned ``(n, L)`` then.
    """
    r_in = np.asarray(restart_cost, dtype=float)
    lanes = r_in.ndim == 2
    te_arr, x_arr, c_arr, r_arr, s_arr = np.broadcast_arrays(
        np.asarray(te, dtype=float),
        np.asarray(intervals, dtype=np.int64),
        np.asarray(checkpoint_cost, dtype=float),
        r_in[:, 0] if lanes else r_in,
        np.asarray(state),
    )
    te_arr = np.ascontiguousarray(te_arr, dtype=float)
    x_arr = np.ascontiguousarray(x_arr, dtype=np.int64)
    c_arr = np.ascontiguousarray(c_arr, dtype=float)
    r_arr = np.ascontiguousarray(
        np.broadcast_to(r_in, (te_arr.size, r_in.shape[1])) if lanes
        else r_arr, dtype=float)
    # Written so that ``nan`` fails every check.
    if not np.all(te_arr > 0):
        raise ValueError("all te must be positive (no nan)")
    if np.any(x_arr < 1):
        raise ValueError("all interval counts must be >= 1")
    if not (np.all(c_arr >= 0) and np.all(r_arr >= 0) and restart_delay >= 0):
        raise ValueError("costs and delays must be non-negative (no nan)")
    return te_arr, x_arr, c_arr, r_arr, np.ascontiguousarray(s_arr)


def _block_ends(k: int, n_blocks: int, block_rounds: int,
                left: int) -> list[int]:
    """Ends, as rows of the span, of its ``n_blocks`` blocks.

    The schedule ramps from a block of ``k`` rounds, doubling up to
    ``block_rounds`` (the last ramp step is capped there, so any
    ``block_rounds`` works, not only powers of two), and the last block
    is cut at ``left``, the rounds left before ``max_segments``.  Only
    the ramp (at most ``log2(block_rounds)`` blocks) is stepped in
    Python; the full blocks after it are one ``range``.
    """
    ends, total = [], 0
    while k < block_rounds and len(ends) < n_blocks and total < left:
        total = min(total + k, left)
        ends.append(total)
        k = min(2 * k, block_rounds)
    if len(ends) < n_blocks and total < left:
        last = min(total + (n_blocks - len(ends)) * block_rounds, left)
        ends.extend(range(total + block_rounds, last, block_rounds))
        ends.append(last)
    return ends


def _floor_quotient(u: np.ndarray, cycle: np.ndarray):
    """``(u // cycle, u / cycle)`` for a span ``u`` and per-column cycles.

    ``//`` is the boundary rule but costs over ten times a division, so
    the floor is taken of the rounded quotient ``q = u / cycle``.  The
    two differ only where ``q`` rounded up onto a whole number (the
    exact quotient sits just below it, as in ``1.0 // 0.1 == 9`` beside
    ``floor(1.0 / 0.1) == 10``): rounding is monotone and whole numbers
    are representable, so a quotient that is not whole has the exact
    one's floor.  Where ``floor(q) == q`` (whole quotients, ``0`` and
    ``inf`` among them) ``//`` is recomputed on that subset alone.
    """
    q = u / cycle
    commits = np.floor(q)
    rows, cols = np.nonzero(commits == q)
    if rows.size:
        commits[rows, cols] = u[rows, cols] // cycle[cols]
    return commits, q


# ``inf // cycle`` is ``nan``; it only reaches rows after the finish.
@np.errstate(invalid="ignore")
def _simulate_blocked_core(
    te_arr: np.ndarray,
    x_arr: np.ndarray,
    c_arr: np.ndarray,
    r_arr: np.ndarray,
    state: np.ndarray,
    draw,
    restart_delay: float,
    max_segments: int,
    block_rounds: int = DEFAULT_BLOCK_ROUNDS,
    rng: np.random.Generator | None = None,
) -> SimulationResult:
    """The one batch round loop; every batch kernel runs on it.

    ``draw(state, start, ends)`` is the *uptime source*: ``ends`` lists
    the ends of consecutive blocks of segment rounds, counted from
    ``start`` (so block ``b`` covers rows ``ends[b-1]:ends[b]``, the
    first from row 0), and the source returns an ``(ends[-1], m)``
    matrix whose row ``r`` holds segment round ``start + r`` for the
    ``m`` still-live tasks described by ``state`` (a per-task array
    compacted alongside the working arrays as tasks finish).  The
    matrix must be a fresh array the source keeps no reference to: the
    loop overwrites it in place.  A source
    may ignore ``start`` and the inner block ends, but one drawing from
    a generator must leave it where one draw per block would: the
    scaled source draws the span at once, because its draws
    concatenate; the per-law source steps block by block.  A kernel
    whose source draws from a generator passes that generator as
    ``rng``; the loop then snapshots and restores it (see below).

    Rounds are taken in blocks that ramp geometrically (1, 2, 4, ...
    ``block_rounds``): the first rounds, where most tasks are still
    alive, take exactly what they consume, while the long tail of
    survivors amortizes the per-block source overhead.  Each iteration
    draws a *span* of consecutive blocks of that schedule, all at the
    current live count, in one source call, and scans it column-wise
    in whole-matrix ops:

    * checkpoints left before round ``r`` are
      ``max(rem - cumsum(u // cycle), 0)`` over the earlier rounds,
      exactly the per-round saturating ``rem -= min(u // cycle, rem)``
      because every operand is an integer-valued float; ``u // cycle``
      is the exact fast floor of :func:`_floor_quotient`;
    * round ``r`` finishes the task when ``u >= rem * cycle + L``;
    * the wallclock after round ``r`` is a sequential ``cumsum`` of
      ``u + (R + d)``, bit-identical to adding one round at a time.

    Two shortcuts skip whole-matrix passes without moving a bit.  A
    span in which no live task can commit a checkpoint (each has none
    left, or none of its uptimes reaches its cycle ``L + C``) has one
    finish time per column, ``rem * cycle + L``: the column maximum
    finds the columns that finish, and only those are scanned for their
    first finishing row.  A span in which no task finishes is read only
    at its last wallclock row, so it takes ``np.add.reduce`` over the
    rows instead of the ``cumsum``.  NumPy adds the rows of a C-ordered
    matrix of two or more columns one at a time, in the ``cumsum``'s
    order, but sums a single column, or an F-ordered matrix such as the
    ``uptimes[s:e, live]`` the replay source returns, pairwise; those
    spans keep the ``cumsum``.

    The loop consumes the span up to the end of the first block in
    which any task finishes, records each finished task at its first
    finishing round and compacts.  The blocks after that one were drawn
    for tasks that have since left, so the block-by-block schedule
    would have drawn them at a smaller live count: the loop discards
    them, *rewinds* ``rng`` to its state before the span and calls
    ``draw(state, start, ends[:used])`` for the ``used`` consumed
    blocks, so the generator stands exactly where block-by-block
    stepping leaves it (for every law: the source replays its sample
    calls, nothing assumes they concatenate).  Sources without ``rng``
    must be stateless.  A span starts at one block, doubles after a
    span without a finish and drops back to one after a finish; it
    holds at most ``_SPAN_UPTIMES // (block_rounds * m)`` blocks, and
    never fewer than one.

    A task still alive after ``max_segments`` rounds (i.e. after
    ``max_segments`` failures) is reported with ``completed = False``
    and the wallclock accumulated so far, as in :func:`simulate_task`.

    *Lanes.*  ``r_arr`` may be an ``(n, L)`` matrix: ``L`` runs of the
    same tasks on the same uptimes that differ only in what a failure
    charges, column ``l`` being lane ``l``'s restart costs.  Nothing
    but the wallclock reads the charge, so the live set, the draw, the
    column maximum, the finish and rewind decisions and the failure
    counts are the lanes' common ones, taken once per span; per lane
    the loop does only the charge add and the row reduce (or
    ``cumsum``), and records finishes into that lane's wallclock.  The
    last lane adds in place on the source's matrix, the others into a
    copy of the same layout, so each lane sums its rows in the order
    its own call would.  The result has ``L * n`` lane-major rows, lane
    ``l``'s bit-identical to a call with ``r_arr[:, l]``; a 1-D
    ``r_arr`` is one lane on the same path.
    """
    if block_rounds < 1:
        raise ValueError(f"block_rounds must be >= 1, got {block_rounds}")
    n = te_arr.size
    charges = r_arr.T if r_arr.ndim == 2 else [r_arr]
    n_lanes = len(charges)
    last = n_lanes - 1
    wall = np.zeros((n_lanes, n), dtype=float)
    fails = np.zeros(n, dtype=np.int64)
    completed = np.zeros(n, dtype=bool)

    # Compacted working state: slot i describes original task idx[i].
    # Every live task fails once in each round it does not finish, so
    # a task's failure count is the round it finishes (or stops) in.
    idx = np.arange(n)
    length_w = te_arr / x_arr
    cycle_w = length_w + c_arr
    rem_w = (x_arr - 1).astype(float)  # remaining checkpoints (x - 1 - m)
    ckpt_left = bool(rem_w.any())  # only ever turns False
    # Per lane: the wall-clock charge per failure and the wallclock.
    fcost_w = [r + restart_delay for r in charges]
    wall_w = [np.zeros(n, dtype=float) for _ in charges]

    rounds = 0
    k_next = 1  # next block of the ramp
    span = 1  # blocks per span
    n_spans = n_no_finish = n_no_commit = n_rewound = 0
    while idx.size and rounds < max_segments:
        m = idx.size
        n_blocks = min(span, max(1, _SPAN_UPTIMES // (block_rounds * m)))
        snapshot = (rng.bit_generator.state
                    if rng is not None and n_blocks > 1 else None)
        ends = _block_ends(k_next, n_blocks, block_rounds,
                           max_segments - rounds)
        u = draw(state, rounds, ends)
        n_spans += 1

        # ``cand``: the columns that finish somewhere in the span, and
        # ``first`` the first finishing row of each.  While no checkpoint
        # commits, a column's finish time is one value and its maximum
        # finds the finish.
        u_max = np.maximum.reduce(u, axis=0)
        if ckpt_left:
            t_end = rem_w * cycle_w + length_w
            commit_free = np.all((u_max < cycle_w) | (rem_w == 0))
        else:
            t_end, commit_free = length_w, True
        if commit_free:
            n_no_commit += 1
            commits = None
            (cand,) = (u_max >= t_end).nonzero()
            if cand.size:
                first = (u[:, cand] >= t_end[cand]).argmax(axis=0)
        else:
            commits, t_fin = _floor_quotient(u, cycle_w)
            np.cumsum(commits, axis=0, out=commits)
            t_fin[0] = rem_w  # checkpoints left before each round
            np.subtract(rem_w, commits[:-1], out=t_fin[1:])
            np.maximum(t_fin[1:], 0.0, out=t_fin[1:])
            t_fin *= cycle_w
            t_fin += length_w
            done = u >= t_fin
            (cand,) = done.any(axis=0).nonzero()
            first = done[:, cand].argmax(axis=0)

        # Consume through the first block with a finish; rewind the rest.
        used = len(ends)
        if cand.size:
            used = bisect.bisect_right(ends, first.min()) + 1
        end = ends[used - 1]
        if used < len(ends):
            n_rewound += len(ends) - used
            if snapshot is not None:
                rng.bit_generator.state = snapshot
                draw(state, rounds, ends[:used])
        k_next = min(k_next << used, block_rounds)
        span = 1 if cand.size else 2 * span

        n_no_finish += not cand.size
        # Only the last row is read: a reduce over C-ordered rows adds
        # them one at a time, like ``cumsum`` (a single column or an
        # F-ordered matrix would be summed pairwise instead).
        reduce_rows = (not cand.size and m > 1
                       and u[:end].flags.c_contiguous)
        if cand.size:
            now = first < end  # later finishes fall in rewound blocks
            fin, row = cand[now], first[now]
            tasks = idx[fin]
            t_done = t_end[fin] if commits is None else t_fin[row, fin]
            fails[tasks] = rounds + row
            completed[tasks] = True
        for lane in range(n_lanes):
            # The last lane takes the source's fresh matrix in place; the
            # others add their charge into a copy of the same layout.
            if lane == last:
                walls = u[:end]
                walls += fcost_w[lane]
            else:
                walls = u[:end] + fcost_w[lane]
            walls[0] += wall_w[lane]
            if reduce_rows:
                wall_w[lane] = np.add.reduce(walls, axis=0)
                continue
            np.cumsum(walls, axis=0, out=walls)  # wallclock after each round
            if cand.size:
                wall[lane][tasks] = (np.where(row > 0, walls[row - 1, fin],
                                              wall_w[lane][fin]) + t_done)
            wall_w[lane] = walls[end - 1]
        rounds += end
        if commits is not None:
            rem_w = np.maximum(rem_w - commits[end - 1], 0.0)
        if cand.size:
            keep = np.ones(m, dtype=bool)
            keep[fin] = False
            idx = idx[keep]
            length_w = length_w[keep]
            cycle_w = cycle_w[keep]
            rem_w = rem_w[keep]
            fcost_w = [f[keep] for f in fcost_w]
            wall_w = [w[keep] for w in wall_w]
            state = state[keep]
        if ckpt_left and (commits is not None or cand.size):
            ckpt_left = bool(rem_w.any())

    if idx.size:  # truncated by the max_segments safety bound
        for lane, w in enumerate(wall_w):
            wall[lane][idx] = w
        fails[idx] = rounds
    # Not imported here, to keep it off the import path: a program that
    # turned DEBUG on has imported ``logging`` itself.
    logging = sys.modules.get("logging")
    if logging and logging.getLogger(__name__).isEnabledFor(logging.DEBUG):
        logging.getLogger(__name__).debug(
            "round loop: %d tasks, %d lanes, %d rounds, %d spans (%d "
            "finish-free, %d commit-free), %d rewound blocks, %d truncated",
            n, n_lanes, rounds, n_spans, n_no_finish, n_no_commit, n_rewound,
            idx.size,
        )

    return SimulationResult(
        te=np.concatenate([te_arr] * n_lanes),
        wallclock=wall.ravel(),
        n_failures=np.concatenate([fails] * n_lanes),
        intervals=np.concatenate([x_arr] * n_lanes),
        completed=np.concatenate([completed] * n_lanes),
    )


def simulate_tasks_blocked(
    te: np.ndarray,
    intervals: np.ndarray,
    checkpoint_cost: np.ndarray,
    restart_cost: np.ndarray,
    dist_ids: np.ndarray,
    distributions: dict[int, Distribution],
    rng: np.random.Generator,
    restart_delay: float = 0.0,
    max_segments: int = 100_000,
) -> SimulationResult:
    """Vectorized Monte-Carlo over a batch of independent tasks.

    Parameters
    ----------
    te, intervals, checkpoint_cost, restart_cost:
        Per-task parameters (broadcast to a common length).
    dist_ids:
        Per-task key into ``distributions`` selecting the failure-
        interval law (typically the task priority).
    distributions:
        Mapping id → interval :class:`Distribution`.
    rng:
        Randomness source.  Each block of segment rounds draws one
        ``(k, m)`` matrix per law, laws in a fixed order, so results
        are reproducible for a fixed seed and input order.
    restart_delay:
        Extra wall-clock charged per failure on top of the restart cost
        (models scheduling/queueing; the DES measures it endogenously).
    max_segments:
        Safety bound on failures per task; tasks exceeding it are
        reported with ``completed = False``.

    The sharded parallel runner (:mod:`repro.parallel`) runs this
    kernel once per chunk.
    """
    te_arr, x_arr, c_arr, r_arr, d_arr = _validate_batch(
        te, intervals, checkpoint_cost, restart_cost, dist_ids, restart_delay
    )
    present = set(np.unique(d_arr).tolist())
    missing = present - set(distributions)
    if missing:
        raise KeyError(f"no distribution registered for ids {sorted(missing)}")
    # Laws absent from the batch never draw, so skipping them keeps the
    # stream; a chunk of a per-task-law batch loops over its own laws.
    dist_order = sorted((k for k in distributions if k in present), key=repr)

    def draw(ids_live: np.ndarray, start: int, ends: list[int]) -> np.ndarray:
        # Laws interleave within each block and ``Mixture`` draws do not
        # concatenate, so this source steps block by block.
        groups = [(distributions[did], sel) for did in dist_order
                  if (sel := np.flatnonzero(ids_live == did)).size]
        out = np.empty((ends[-1], ids_live.size), dtype=float)
        lo = 0
        for hi in ends:
            for law, sel in groups:
                out[lo:hi, sel] = law.sample(rng, (hi - lo, sel.size))
            lo = hi
        return out

    return _simulate_blocked_core(
        te_arr, x_arr, c_arr, r_arr, d_arr,
        draw, restart_delay, max_segments, rng=rng,
    )


def simulate_tasks_scaled(
    te: np.ndarray,
    intervals: np.ndarray,
    checkpoint_cost: np.ndarray,
    restart_cost: np.ndarray,
    interval_scale: np.ndarray,
    rng: np.random.Generator,
    restart_delay: float = 0.0,
    max_segments: int = 100_000,
) -> SimulationResult:
    """Blocked Monte-Carlo with per-task exponential interval scales.

    The frailty model's redraw path: task ``i`` draws its uptimes from
    ``Exponential(mean = interval_scale[i])``.  Same round loop and
    truncation rule as :func:`simulate_tasks_blocked`, with the
    per-distribution grouping replaced by one broadcast exponential draw.

    ``restart_cost`` may be an ``(n, L)`` matrix: ``L`` lanes share
    one draw of every span (see :func:`_simulate_blocked_core`), and
    the result holds ``L * n`` rows, lane by lane, lane ``l``'s
    bit-identical to this call with ``restart_cost[:, l]``.
    """
    te_arr, x_arr, c_arr, r_arr, s_arr = _validate_batch(
        te, intervals, checkpoint_cost, restart_cost,
        np.asarray(interval_scale, dtype=float), restart_delay,
    )
    if not np.all(s_arr > 0):
        raise ValueError("all interval scales must be positive (no nan)")

    def draw(scales: np.ndarray, start: int, ends: list[int]) -> np.ndarray:
        # One call for the whole span: NumPy fills the matrix row by row,
        # so it equals the per-block draws stacked.  ``* scales`` is
        # bit-identical to rng.exponential(scales, ...), and cheaper.
        return rng.standard_exponential((ends[-1], scales.size)) * scales

    return _simulate_blocked_core(
        te_arr, x_arr, c_arr, r_arr, s_arr,
        draw, restart_delay, max_segments, rng=rng,
    )


def simulate_task_async_checkpoints(
    te: float,
    intervals: int,
    checkpoint_cost: float,
    restart_cost: float,
    injector,
    restart_delay: float = 0.0,
    max_segments: int = 100_000,
) -> TaskOutcome:
    """Scalar simulation with *non-blocking* checkpoint writes.

    Algorithm 1 (line 7) runs each checkpoint in a separate thread so
    the countdown to the next checkpoint is not blocked; Table 4 shows
    why (a blocking write costs up to ~7 s).  Under this model the
    checkpoint write overlaps execution:

    * wall-clock advances only with productive progress (plus restart
      costs) — the write adds **no** wall-clock of its own;
    * a checkpoint at position ``p`` only *commits* once the task has
      run ``checkpoint_cost`` seconds beyond ``p`` uninterrupted; a
      failure inside that write window voids the checkpoint (rollback
      goes to the previous committed one).

    Comparing against :func:`simulate_task` quantifies the benefit of
    the threaded design.
    """
    if not te > 0:
        raise ValueError(f"te must be positive, got {te}")
    if intervals < 1:
        raise ValueError(f"intervals must be >= 1, got {intervals}")
    if not (checkpoint_cost >= 0 and restart_cost >= 0 and restart_delay >= 0):
        raise ValueError("costs and delays must be non-negative (no nan)")
    x = int(intervals)
    length = te / x
    c = checkpoint_cost
    m = 0  # committed checkpoint index
    wall = 0.0
    fails = 0
    for _ in range(max_segments):
        u = injector.next_failure_in()
        start = m * length  # resume point (progress)
        t_fin = te - start  # no blocking writes: finish needs pure work
        if u >= t_fin:
            wall += t_fin
            return TaskOutcome(
                te=te,
                wallclock=wall,
                n_failures=fails,
                n_checkpoints=x - 1,
                intervals=x,
                completed=True,
            )
        # Checkpoint k (position (m+j)*length) commits once the task has
        # run j*length + c uninterrupted since the resume point.
        if u > c:
            j = int((u - c) // length)
            # position must be an interior one
            j = min(j, x - 1 - m)
        else:
            j = 0
        m += j
        fails += 1
        wall += u + (restart_cost + restart_delay)
    return TaskOutcome(
        te=te,
        wallclock=wall,
        n_failures=fails,
        n_checkpoints=m,
        intervals=x,
        completed=False,
    )


def simulate_tasks_replay(
    te: np.ndarray,
    intervals: np.ndarray,
    checkpoint_cost: np.ndarray,
    restart_cost: np.ndarray,
    interval_matrix: np.ndarray,
    restart_delay: float = 0.0,
) -> SimulationResult:
    """Vectorized replay of recorded failure intervals (trace-driven).

    ``interval_matrix`` has one row per task; entry ``[i, h]`` is the
    uninterrupted uptime before task ``i``'s (h+1)-st failure, padded
    with ``inf`` once the recorded failures are exhausted (the task then
    runs failure-free, mirroring the paper's ``kill -9`` replay of
    Google trace events).  Entries must be non-negative; ``nan`` is
    rejected.

    The same round loop as :func:`simulate_tasks_blocked`, reading its
    uptimes from the matrix instead of an RNG, so oracle-prediction
    experiments (Table 6) can give each policy *exactly* the failures
    the history recorded.  Every task completes: the round after the
    last column sees an ``inf`` uptime.
    """
    mat = np.asarray(interval_matrix, dtype=float)
    if mat.ndim != 2:
        raise ValueError(
            f"interval_matrix must be (n_tasks, max_failures); got {mat.shape}"
        )
    te_arr, x_arr, c_arr, r_arr, rows = _validate_batch(
        te, intervals, checkpoint_cost, restart_cost,
        np.arange(mat.shape[0]), restart_delay,
    )
    if rows.size != mat.shape[0]:
        raise ValueError(
            f"interval_matrix must be (n_tasks, max_failures); got {mat.shape} "
            f"for {te_arr.size} tasks"
        )
    if not np.all(mat >= 0):
        raise ValueError("replay intervals must be non-negative (no nan)")

    # Round-major, plus one all-``inf`` round that finishes every task.
    uptimes = np.full((mat.shape[1] + 1, mat.shape[0]), np.inf)
    uptimes[:-1] = mat.T

    def draw(rows_live: np.ndarray, start: int, ends: list[int]) -> np.ndarray:
        return uptimes[start:start + ends[-1], rows_live]

    return _simulate_blocked_core(
        te_arr, x_arr, c_arr, r_arr, rows,
        draw, restart_delay, max_segments=len(uptimes),
    )


def simulate_task_two_phase(
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
    first reaches ``s = switch_fraction * te``, its priority is retuned —
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
    regime; failure draws always use the true ``dist_*``, one
    ``dist.sample(rng, 1)`` per segment (the segment that reaches ``s``
    included), and ``max_segments`` bounds the segments of both phases.

    Every segment follows :func:`simulate_task`'s closed form.  The
    phase-1 grid has ``x1`` intervals of ``L = te / x1``; its last
    position at or before the switch is ``j_s = min(int(switch_fraction
    * x1), x1 - 1)`` (position ``p`` is at or before ``s`` exactly when
    ``p <= switch_fraction * x1`` — an integer rule, so a switch landing
    on a position is never decided by rounding).  Phase 1 races the
    switch from checkpoint ``m`` and commits at most ``j_s - m``
    checkpoints per failure; the static run resumes its first phase-2
    segment ``s - j_s * L`` past checkpoint ``j_s``.
    """
    from repro.core.formulas import optimal_interval_count_int

    if not te > 0:
        raise ValueError(f"te must be positive, got {te}")
    if not checkpoint_cost > 0:
        raise ValueError(f"checkpoint cost must be positive, got {checkpoint_cost}")
    if not (restart_cost >= 0 and restart_delay >= 0):
        raise ValueError("restart cost and delay must be non-negative (no nan)")
    if not (mnof_phase1 >= 0 and mnof_phase2 >= 0):
        raise ValueError("MNOF values must be non-negative (no nan)")
    if not 0 < switch_fraction < 1:
        raise ValueError(f"switch_fraction must lie in (0,1), got {switch_fraction}")

    fail_cost = restart_cost + restart_delay
    wall = 0.0
    fails = 0
    budget = max_segments

    def walk(dist, m, last, length, tail, off=0.0):
        """Run segments from ``off`` past checkpoint ``m`` until progress
        ``last * length + tail`` is reached, committing no checkpoint
        past ``last``; returns ``(m, reached)``."""
        nonlocal wall, fails, budget
        cycle = length + checkpoint_cost
        while budget > 0:
            budget -= 1
            u = float(dist.sample(rng, 1)[0])
            t_end = (last - m) * cycle + tail - off
            if u >= t_end:
                wall += t_end
                return last, True
            m += min(int((u + off) // cycle), last - m)
            off = 0.0
            fails += 1
            wall += u + fail_cost
        return m, False

    switch_at = switch_fraction * te
    x1 = int(optimal_interval_count_int(te, mnof_phase1, checkpoint_cost))
    length = te / x1
    j_s = min(int(switch_fraction * x1), x1 - 1)
    past = switch_at - j_s * length  # the switch's offset past position j_s

    ckpts, switched = walk(dist_phase1, 0, j_s, length, past)
    completed = False
    if switched and adaptive:
        # Immediate checkpoint at the switch anchors the recomputed grid.
        wall += checkpoint_cost
        remaining = te - switch_at
        mnof_rem = mnof_phase2 * remaining / te
        x2 = int(optimal_interval_count_int(remaining, mnof_rem, checkpoint_cost))
        m2, completed = walk(dist_phase2, 0, x2 - 1, remaining / x2, remaining / x2)
        ckpts += 1 + m2
    elif switched:
        ckpts, completed = walk(dist_phase2, j_s, x1 - 1, length, length, past)

    return TaskOutcome(
        te=te,
        wallclock=wall,
        n_failures=fails,
        n_checkpoints=ckpts,
        intervals=x1,
        completed=completed,
    )

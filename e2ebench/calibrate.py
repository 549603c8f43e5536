"""A fixed reference task that measures how fast the host is right now.

The 2-core hosts this benchmark was built on change speed by tens of
percent over seconds and minutes, whatever the benchmark does.  The
reference task below is code of the benchmark's own, so no change to
the program under test can move it: the ratio of its time to
:data:`REFERENCE_S` is the host's slowdown at that moment.
"""

from __future__ import annotations

import heapq
import json
import time
from collections import defaultdict

import numpy as np

#: Time of :func:`reference_task` on a 2-core x86 host at its fastest.
REFERENCE_S = 0.0095


def reference_task() -> float:
    """Seconds for a fixed mix of interpreter and NumPy work: heap
    churn like an event loop, JSON round trips like store records, and
    array arithmetic like the Monte-Carlo kernels."""
    t0 = time.perf_counter()
    heap: list[tuple[int, int]] = []
    for i in range(6000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
    while heap:
        heapq.heappop(heap)
    record = {str(i): [i, i * 0.5, {"k": i}] for i in range(800)}
    for _ in range(3):
        record = json.loads(json.dumps(record))
    a = np.arange(100_000, dtype=float)
    float((np.sqrt(a) * 1.5 + a % 7).sum())
    return time.perf_counter() - t0


class Clock:
    """Timed items, each kept as measured and at reference speed.

    :meth:`add` queues an item's wall time; :meth:`calibrate` runs the
    reference task and files every queued item with the slowdown
    measured around it (the mean of the reference times just before and
    just after it, over :data:`REFERENCE_S`).
    """

    def __init__(self) -> None:
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.ref: dict[str, list[float]] = defaultdict(list)
        self.reference_times: list[float] = []
        self._queued: list[tuple[str, float]] = []

    def add(self, kind: str, wall: float) -> None:
        """Queue one item of ``kind`` that took ``wall`` seconds."""
        self._queued.append((kind, wall))

    def calibrate(self) -> None:
        """Run the reference task and file the queued items."""
        # The fastest of three shrugs off a one-off stall (an interrupt,
        # a garbage collection) inside one of them.
        now = min(reference_task() for _ in range(3))
        before = self.reference_times[-1] if self.reference_times else now
        self.reference_times.append(now)
        slowdown = (before + now) / (2.0 * REFERENCE_S)
        for kind, wall in self._queued:
            self.raw[kind].append(wall)
            self.ref[kind].append(wall / slowdown)
        self._queued.clear()

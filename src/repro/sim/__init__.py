"""Discrete-event simulation engine.

A small, deterministic, generator-based process simulator in the style
of SimPy, used as the substrate for the cloud-cluster model
(:mod:`repro.cluster`).  Processes are Python generators that ``yield``
events or bare delays; the :class:`~repro.sim.engine.Environment`
advances virtual time and resumes processes when what they wait on
triggers.

The engine holds only what the cluster model uses: timeouts and
absolute-time wakes, generic events, process interruption (task
kill/evict events), the :class:`~repro.sim.engine.Deadline` that
stands in for a watchdog process, and the
:class:`~repro.sim.engine.AllOf` condition that joins a bag-of-tasks
fan-out.  VM slots and checkpoint devices
are modelled in :mod:`repro.cluster` and :mod:`repro.storage`, not
here.

Determinism: events scheduled at the same timestamp are processed in
FIFO scheduling order (a monotonically increasing sequence number breaks
ties), so a fixed seed yields a bit-identical trajectory.
"""

from repro.sim.engine import (
    AllOf,
    Deadline,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)

__all__ = [
    "AllOf",
    "Deadline",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]

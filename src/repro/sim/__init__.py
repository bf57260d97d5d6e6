"""Discrete-event simulation kernel.

A compact, deterministic, generator-process discrete-event engine in the
style of SimPy, sized for simulating Myrinet networks at packet
granularity.  Time is a ``float`` in **nanoseconds**.

Public surface
--------------
:class:`Simulator`
    The event loop: schedules callbacks, runs generator processes.
:class:`Process`
    Handle for a running generator process (interruptible).
:class:`Event`
    One-shot triggerable event that processes can wait on.
:class:`Timeout`
    A delay yielded from inside a process.
:class:`Resource`
    FIFO resource with integer capacity (models physical channels).
:class:`Store`
    FIFO queue of items with optional capacity (models packet buffers).
"""

from repro.sim.engine import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Resource, Store

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]

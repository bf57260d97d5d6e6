"""Wormhole network simulation.

Models the Myrinet fabric at packet granularity with cut-through
pipelining: links are pairs of directed channels, switches strip one
routing byte and impose a per-port-kind fall-through latency, and a
blocked packet holds every lane between its tail and head (the
observable effect of Stop&Go flow control with small slack buffers).
By default each channel carries a single lane — one packet per link
direction, as on real Myrinet switches — but the fabric can be built
with N virtual-channel lanes per link (``Fabric(..., lanes=N)``),
each an independently arbitrated FIFO with its own credit state, with
lane selection delegated to a pluggable policy
(:mod:`repro.network.lanes`).  This is the competing design the
paper's in-transit buffers set out to avoid; the ``vc-study``
experiment runs the head-to-head.
"""

from repro.network.fabric import Channel, Fabric
from repro.network.lanes import (
    EscapeLanePolicy,
    FixedLanePolicy,
    LanePolicy,
    RoundRobinLanePolicy,
    escape_lane_walk,
    lanes_needed,
    make_lane_policy,
)
from repro.network.worm import Worm, WormObserver
from repro.network.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    install_fault_plan,
)
from repro.network.deadlock import (
    DeadlockReport,
    DeadlockWatchdog,
    detect_deadlock,
)
from repro.network.instrumentation import FabricUsage

__all__ = [
    "Channel",
    "DeadlockReport",
    "DeadlockWatchdog",
    "EscapeLanePolicy",
    "Fabric",
    "FabricUsage",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FixedLanePolicy",
    "LanePolicy",
    "RoundRobinLanePolicy",
    "Worm",
    "WormObserver",
    "detect_deadlock",
    "escape_lane_walk",
    "install_fault_plan",
    "lanes_needed",
    "make_lane_policy",
]

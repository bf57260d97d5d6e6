"""A kill in any flight state settles the fabric.

The per-worm form of the invariant "no lane is held by a dead worm":
whatever state a worm is in when :meth:`Worm.kill` lands — a virtual
or materialised express flight, a demoted continuation, a tail stalled
on a receive gate, a stepped worm queued at injection or blocked
mid-route, or a stepped worm granted a lane in the very instant it is
killed — once the simulation drains, every lane is free with an empty
queue and the fabric's claim index is empty.  A traced victim's wire
span closes with status ``killed``.

Every scenario runs on a 3-switch line.  The victim ``V`` flies
``src -> s0 -> s1 -> s2 -> dst``; a crossing worm ``X`` flies
``c -> s1 -> s2 -> dst`` and shares the victim's last two channels.
Alone, ``V`` acquires its channels at 0, 19.15, 132.05 and 244.95 ns,
its header lands at 357.85 ns and its tail at 1976.6 ns; ``X``
launched alone at 0 completes at 1863.7 ns.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import pytest

from repro.core.timings import Timings
from repro.mcp.packet_format import encode_packet
from repro.network.fabric import Fabric
from repro.network.worm import Worm
from repro.obs.tracing import SpanTracer
from repro.routing.routes import SourceRoute
from repro.sim.engine import Simulator
from repro.topology.graph import Topology

PAYLOAD = b"k" * 256
#: Completion of ``X`` launched at 0 and never blocked.
X_COMPLETE_NS = 1863.7


class _Observer:
    """Destination hooks; ``gate`` (if any) stalls every header."""

    def __init__(self, gate=None):
        self.gate = gate

    def on_header(self, worm, t):
        return self.gate

    def on_complete(self, worm, t):
        pass


def _line(lanes: int):
    topo = Topology()
    s = [topo.add_switch(n_ports=4) for _ in range(3)]
    topo.connect(s[0], 2, s[1], 3)
    topo.connect(s[1], 2, s[2], 3)
    src = topo.attach_host(s[0], 0, name="src")
    dst = topo.attach_host(s[2], 1, name="dst")
    c = topo.attach_host(s[1], 0, name="c")
    sim = Simulator()
    fabric = Fabric(sim, topo, Timings(), lanes=lanes)
    victim = SourceRoute(src=src, dst=dst, ports=(2, 2, 1),
                         switch_path=tuple(s))
    cross = SourceRoute(src=c, dst=dst, ports=(2, 1), switch_path=(s[1], s[2]))
    return sim, fabric, victim, cross


def _launch(sim, fabric, seg, tag, at, gate=None):
    worm = Worm(sim, fabric, seg, encode_packet(seg, PAYLOAD),
                observer=_Observer(gate), meta={"tag": tag})
    sim.schedule_at(at, worm.launch)
    return worm


def _proc_name(worm):
    proc = worm._active_proc
    return proc.name if proc is not None and proc.alive else None


def _virtual_express(v, x, fabric):
    return v._express_live and not v._held


def _materialized_express(v, x, fabric):
    return (not v._express_live and len(v._held) == 4
            and _proc_name(v) is None)


def _demoted_continuation(v, x, fabric):
    return _proc_name(v) == f"worm{v.worm_id}-demoted"


def _gated_express(v, x, fabric):
    return _proc_name(v) == f"worm{v.worm_id}-gated"


def _gated_stepped(v, x, fabric):
    return (_proc_name(v) == f"worm{v.worm_id}"
            and v.header_time is not None and len(v._held) == 4)


def _queued_at_injection(v, x, fabric):
    lane = fabric.host_out(v.segment.src).lanes[0]
    return not v._held and lane.queue_length == 1


def _blocked_mid_route(v, x, fabric):
    lane = fabric.flight_plan(v.segment).channels[2].lanes[0]
    return (len(v._held) == 2 and lane.queue_length == 1
            and x.complete_time is None)


class Case(NamedTuple):
    express: bool       # the express lane is on
    victim_at: float    # V's launch time
    other: str          # "" (V alone), "cross" (X) or "same-host"
    other_at: float     # the other worm's launch time
    gated: bool         # V's header gate never triggers
    kill_at: float
    reached: Callable   # (V, other worm, fabric) -> the state holds


STATES = {
    # Alone and express: at 200 ns its holds are still virtual.
    "virtual-express": Case(True, 0.0, "", 0.0, False, 200.0,
                            _virtual_express),
    # X launches after V's header: every hold has matured, so V
    # materialises and X queues behind it.
    "materialized-express": Case(True, 0.0, "cross", 500.0, False, 1000.0,
                                 _materialized_express),
    # X launches between V's acquires of channels 1 and 2: V keeps
    # channels 0-1 and continues stepped from channel 2 (at 132.05 ns),
    # where X already holds the lane.
    "demoted-tail": Case(True, 0.0, "cross", 50.0, False, 1000.0,
                         _demoted_continuation),
    # The header's gate never triggers: the express tail waits in a
    # gated process.
    "gated-express": Case(True, 0.0, "", 0.0, True, 1000.0, _gated_express),
    # The same on the stepped lane: the launch process waits.
    "gated-stepped": Case(False, 0.0, "", 0.0, True, 1000.0, _gated_stepped),
    # A worm launched earlier from V's host holds the injection channel.
    "queued-at-injection": Case(True, 10.0, "same-host", 0.0, False, 500.0,
                                _queued_at_injection),
    # X flies first; V falls back to the stepped lane, holds channels
    # 0-1 and waits on channel 2.
    "blocked-mid-route": Case(True, 10.0, "cross", 0.0, False, 1000.0,
                              _blocked_mid_route),
    # As above, killed in the instant X releases channel 2: the kill's
    # interrupt is queued first, so X's release grants V the lane
    # before the interrupt lands.
    "granted-in-kill-instant": Case(True, 10.0, "cross", 0.0, False,
                                    X_COMPLETE_NS, _blocked_mid_route),
}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("state", sorted(STATES))
def test_kill_settles_fabric(state, lanes, traced):
    case = STATES[state]
    sim, fabric, victim_seg, cross_seg = _line(lanes)
    fabric.express_enabled = case.express
    if traced:
        fabric.tracer = SpanTracer()
    gate = sim.event("never") if case.gated else None
    v = _launch(sim, fabric, victim_seg, "V", case.victim_at, gate=gate)
    x = None
    if case.other:
        seg = victim_seg if case.other == "same-host" else cross_seg
        x = _launch(sim, fabric, seg, "X", case.other_at)
    seen = []

    def kill():
        seen.append(case.reached(v, x, fabric))
        v.kill()

    sim.schedule_at(case.kill_at, kill)
    sim.run()

    assert seen == [True], f"{state} not reached at {case.kill_at} ns"
    assert v.complete_time is None
    if x is not None:
        assert x.complete_time is not None
    if state == "granted-in-kill-instant":
        assert x.complete_time == case.kill_at
    for ch in fabric.channels():
        for lane in ch.lanes:
            assert lane.in_use == 0 and lane.queue_length == 0, lane
    assert fabric._claimed_by == {}
    if traced:
        wires = [s for s in fabric.tracer.spans
                 if s.name == "wire" and s.attrs.get("tag") == "V"]
        assert [s.status for s in wires] == ["killed"]
        assert wires[0].end == case.kill_at

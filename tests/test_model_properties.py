"""Property-based validation of the physical models (hypothesis).

Randomized configurations checked against closed-form math: the worm
pipeline against the cut-through latency formula.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timings import Timings
from repro.mcp.packet_format import encode_packet
from repro.network.fabric import Fabric
from repro.network.worm import Worm
from repro.routing.routes import SourceRoute
from repro.sim.engine import Simulator
from repro.topology.graph import PortKind, Topology


class _Recorder:
    def __init__(self):
        self.header_at = None
        self.complete_at = None

    def on_header(self, worm, t):
        self.header_at = t
        return None

    def on_complete(self, worm, t):
        self.complete_at = t


@given(
    n_switches=st.integers(min_value=1, max_value=6),
    payload_len=st.integers(min_value=0, max_value=4096),
    lengths=st.lists(st.floats(min_value=0.5, max_value=50.0,
                               allow_nan=False), min_size=7, max_size=7),
    kinds_bits=st.integers(min_value=0, max_value=127),
)
@settings(max_examples=40, deadline=None)
def test_worm_latency_matches_closed_form(n_switches, payload_len,
                                          lengths, kinds_bits):
    """Any chain (random per-cable lengths and kinds, random payload):
    simulated delivery time equals the cut-through formula exactly."""
    kinds = [PortKind.LAN if (kinds_bits >> i) & 1 else PortKind.SAN
             for i in range(n_switches + 1)]
    cable_lengths = lengths[:n_switches + 1]

    topo = Topology()
    sws = [topo.add_switch(n_ports=4) for _ in range(n_switches)]
    src = topo.add_host(name="src")
    dst = topo.add_host(name="dst")
    topo.connect(sws[0], 0, src, 0, kind=kinds[0],
                 length_m=cable_lengths[0])
    for i in range(n_switches - 1):
        topo.connect(sws[i], 1, sws[i + 1], 0, kind=kinds[i + 1],
                     length_m=cable_lengths[i + 1])
    topo.connect(sws[-1], 1, dst, 0, kind=kinds[-1],
                 length_m=cable_lengths[-1])

    sim = Simulator()
    t = Timings()
    fabric = Fabric(sim, topo, t)
    seg = SourceRoute(src=src, dst=dst, ports=tuple([1] * n_switches),
                      switch_path=tuple(sws))
    image = encode_packet(seg, payload_len)
    rec = _Recorder()
    Worm(sim, fabric, seg, image, observer=rec).launch()
    sim.run()

    head = t.link_byte_ns + t.propagation(cable_lengths[0])
    for i in range(n_switches):
        head += t.fall_through(kinds[i], kinds[i + 1]) \
            + t.propagation(cable_lengths[i + 1])
    wire_at_dst = len(image.data) - n_switches
    assert rec.complete_at == pytest.approx(
        head + t.wire_time(wire_at_dst))

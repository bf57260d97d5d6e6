"""Network discovery: the mapping phase of the GM mapper.

GM's mapper does not read a config file — it *explores*: a mapper host
emits scout packets with explicit source routes, growing its map of
the fabric one port at a time from the echoes it gets back.  The
paper's Section 4 notes the mapper must be modified to emit ITB
routes; this module implements the exploration that precedes that
route computation, running real ``TYPE_MAPPING`` packets through the
simulated fabric.

Protocol (faithful in spirit, simplified in packet count):

1. The mapper knows only its own NIC.  It probes route ``[]`` — the
   node its cable reaches — by sending a scout that the *simulation
   harness* answers with the identity of the reached node (on real
   Myrinet the reached NIC echoes the scout; switches are inferred
   because they do NOT echo — a non-echoing hop means a switch port).
2. For every discovered switch, the mapper probes each of its ports
   with a scout routed ``known_route + [port]``.  Echo -> a host NIC;
   identified silence -> another switch (probed recursively); dead
   port -> no cable.
3. The result is a reconstructed :class:`~repro.topology.graph.Topology`
   -equivalent map the route computation then runs on.

Because scouts traverse the real simulated fabric, discovery costs
simulated time and exercises switches, flow control, and the NIC
receive path — and tests can verify the reconstructed map is
isomorphic to the physical truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.core.builder import BuiltNetwork
    from repro.topology.graph import Topology
from repro.mcp.packet_format import TYPE_MAPPING
from repro.routing.routes import ItbRoute, SourceRoute
from repro.topology.graph import TopologyError

__all__ = ["DiscoveredMap", "DiscoveryError", "discover_network"]


class DiscoveryError(RuntimeError):
    """Raised when exploration cannot complete (e.g. probe budget)."""


@dataclass
class DiscoveredMap:
    """The mapper's reconstructed view of the fabric.

    Node names are the mapper's own labels: ``"sw<k>"`` in discovery
    order for switches, real host ids for NICs (hosts identify
    themselves in their echo).
    """

    mapper_host: int
    #: switch label -> {port: ("host", host_id) | ("switch", label) | None}
    switch_ports: dict[str, dict[int, Optional[tuple]]] = field(
        default_factory=dict)
    #: host id -> (switch label, port) where its NIC is cabled
    host_attach: dict[int, tuple[str, int]] = field(default_factory=dict)
    #: number of scout packets sent
    probes_sent: int = 0
    #: simulated time the mapping phase took (ns)
    elapsed_ns: float = 0.0

    @property
    def n_switches(self) -> int:
        return len(self.switch_ports)

    @property
    def hosts(self) -> list[int]:
        return sorted(self.host_attach)

    def degree(self, label: str) -> int:
        """Cabled fabric ports of a discovered switch."""
        return sum(
            1 for v in self.switch_ports[label].values()
            if v is not None and v[0] == "switch"
        )

    def switch_adjacency(self) -> dict[str, set[str]]:
        """Discovered switch-to-switch adjacency by mapper label."""
        adj: dict[str, set[str]] = {l: set() for l in self.switch_ports}
        for label, ports in self.switch_ports.items():
            for v in ports.values():
                if v is not None and v[0] == "switch":
                    adj[label].add(v[1])
        return adj


def discover_network(
    net: "BuiltNetwork",
    mapper_host: int,
    max_probes: int = 10_000,
    probe_payload: int = 16,
    topo: Optional["Topology"] = None,
) -> DiscoveredMap:
    """Explore the fabric from ``mapper_host`` with scout packets.

    Every probe is a real packet pushed through the simulated network
    (so mapping takes simulated time and exercises the data path); the
    identity oracle — "which node did this route reach, and is it a
    switch or a NIC?" — is answered from topology ground truth, which
    stands in for the echo/silence protocol of the real mapper.

    ``topo`` overrides the ground-truth view: after a fault, passing
    the degraded topology (``net.topo.without_links(...)``) models the
    re-discovery pass — ports whose cable died read as dead, so no
    scout is routed into the failed region (on real Myrinet the scout
    would simply never echo).

    Returns the reconstructed map.  Raises :class:`DiscoveryError`
    when the probe budget is exhausted (disconnected or runaway
    exploration).
    """
    topo = net.topo if topo is None else topo
    sim = net.sim
    result = DiscoveredMap(mapper_host=mapper_host)
    t_start = sim.now

    def reach(route_ports: list[int]) -> Optional[int]:
        """Ground-truth resolution of a probe route (the echo oracle)."""
        try:
            return topo.walk_route(mapper_host, route_ports)
        except TopologyError:
            return None

    def send_probe(route_ports: list[int], target_host: int) -> None:
        """Push a real scout packet along a discovered host route."""
        switch_path = []
        current = topo.switch_of(mapper_host)
        for port in route_ports[:-1]:
            switch_path.append(current)
            link = topo.link_at(current, port)
            current, _ = link.far_end(current, port)
        switch_path.append(current)
        seg = SourceRoute(src=mapper_host, dst=target_host,
                          ports=tuple(route_ports),
                          switch_path=tuple(switch_path))
        done = sim.event("probe")
        net.nics[mapper_host].firmware.host_send(
            dst=target_host, payload_len=probe_payload,
            ptype=TYPE_MAPPING, gm={"kind": "scout", "last": True},
            on_delivered=lambda tp: done.succeed(tp),
            route=ItbRoute((seg,)),
        )
        sim.run_until_event(done)

    # Map physical switch id -> mapper label, and the route to reach it.
    labels: dict[int, str] = {}
    route_to: dict[int, list[int]] = {}

    first_switch = topo.switch_of(mapper_host)
    labels[first_switch] = "sw0"
    route_to[first_switch] = []
    result.switch_ports["sw0"] = {}
    frontier = [first_switch]

    while frontier:
        switch = frontier.pop(0)
        label = labels[switch]
        base_route = route_to[switch]
        for port in range(topo.n_ports(switch)):
            if result.probes_sent >= max_probes:
                raise DiscoveryError(
                    f"probe budget {max_probes} exhausted at {label}")
            result.probes_sent += 1
            reached = reach(base_route + [port])
            if reached is None:
                result.switch_ports[label][port] = None
                continue
            if topo.is_host(reached):
                result.switch_ports[label][port] = ("host", reached)
                result.host_attach[reached] = (label, port)
                # A real scout runs the wire to confirm the NIC answers
                # (also charges simulated mapping time).
                if reached != mapper_host:
                    send_probe(base_route + [port], reached)
            else:
                if reached not in labels:
                    new_label = f"sw{len(labels)}"
                    labels[reached] = new_label
                    route_to[reached] = base_route + [port]
                    result.switch_ports[new_label] = {}
                    frontier.append(reached)
                result.switch_ports[label][port] = ("switch", labels[reached])
        # Mapper pacing between switch scans (route table updates on
        # the real mapper).
        pace = sim.event("pace")
        sim.schedule(1_000.0, pace.succeed)
        sim.run_until_event(pace)

    result.elapsed_ns = sim.now - t_start
    return result

"""Assemble a complete simulated installation.

:func:`build_network` wires together simulator, fabric, NICs,
firmware, GM hosts, and the mapper into a :class:`BuiltNetwork` —
the object the examples, tests, and experiment harness all drive.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.core.config import FirmwareKind, NetworkConfig, RoutingKind
from repro.core.timings import Timings
from repro.gm.allsize import PingPongResult, ping_pong
from repro.gm.host import GmHost
from repro.gm.mapper import run_mapper
from repro.mcp.buffers import BufferPool, FixedBuffers
from repro.mcp.firmware import Firmware, ItbFirmware, OriginalFirmware
from repro.network.fabric import Fabric
from repro.nic.lanai import Nic
from repro.routing.routes import ItbRoute, SourceRoute
from repro.routing.spanning_tree import UpDownOrientation
from repro.sim.engine import Simulator
from repro.topology.generators import fig1_topology, fig6_testbed
from repro.topology.graph import Topology

__all__ = ["BuiltNetwork", "build_network"]

_FIRMWARES = {
    FirmwareKind.ORIGINAL: OriginalFirmware,
    FirmwareKind.ITB: ItbFirmware,
}

#: Installed by :func:`repro.obs.tracing.configure`: a zero-argument
#: callable returning a fresh span tracer, attached as
#: ``fabric.tracer`` on every build.  Module-level so forked pool
#: workers inherit the setting; ``None`` keeps tracing disabled with
#: zero overhead.
tracer_factory = None


class BuiltNetwork:
    """A ready-to-run simulated Myrinet installation."""

    def __init__(
        self,
        sim: Simulator,
        topo: Topology,
        fabric: Fabric,
        nics: dict[int, Nic],
        gm_hosts: dict[int, GmHost],
        orientation: UpDownOrientation,
        config: NetworkConfig,
        roles: Optional[dict[str, int]] = None,
    ) -> None:
        self.sim = sim
        self.topo = topo
        self.fabric = fabric
        self.nics = nics
        self.gm_hosts = gm_hosts
        self.orientation = orientation
        self.config = config
        self.roles = roles or {}

    # -- lookups -----------------------------------------------------------

    def host_id(self, name_or_id: Union[str, int]) -> int:
        """Resolve a role name ('host1'), node name, or raw id."""
        if isinstance(name_or_id, int):
            return name_or_id
        if name_or_id in self.roles:
            return self.roles[name_or_id]
        for h in self.topo.hosts():
            if self.topo.node_name(h) == name_or_id:
                return h
        raise KeyError(f"no host called {name_or_id!r}")

    def gm(self, name_or_id: Union[str, int]) -> GmHost:
        """The GM host endpoint for a host (by role, name, or id)."""
        return self.gm_hosts[self.host_id(name_or_id)]

    def nic(self, name_or_id: Union[str, int]) -> Nic:
        """The NIC model for a host (by role, name, or id)."""
        return self.nics[self.host_id(name_or_id)]

    # -- convenience drivers ---------------------------------------------

    def ping_pong(
        self,
        a: Union[str, int],
        b: Union[str, int],
        size: int,
        iterations: int = 100,
        warmup: int = 2,
        route_ab: Optional[Union[SourceRoute, ItbRoute]] = None,
        route_ba: Optional[Union[SourceRoute, ItbRoute]] = None,
    ) -> PingPongResult:
        """Run a gm_allsize-style ping-pong on this network."""
        if isinstance(route_ab, SourceRoute):
            route_ab = ItbRoute((route_ab,))
        if isinstance(route_ba, SourceRoute):
            route_ba = ItbRoute((route_ba,))
        return ping_pong(
            self.sim, self.gm(a), self.gm(b), size,
            iterations=iterations, warmup=warmup,
            route_ab=route_ab, route_ba=route_ba,
        )

    def total_stats(self) -> dict:
        """Aggregate NIC counters across the installation."""
        agg: dict[str, float] = {}
        for nic in self.nics.values():
            for key, value in vars(nic.stats).items():
                agg[key] = agg.get(key, 0) + value
        return agg


def _named_topology(name: str) -> tuple[Topology, dict[str, int]]:
    if name == "fig6":
        return fig6_testbed()
    if name == "fig1":
        return fig1_topology()
    raise KeyError(f"unknown named topology {name!r}")


def build_network(
    topo: Union[str, Topology],
    config: Optional[NetworkConfig] = None,
    roles: Optional[dict[str, int]] = None,
    route_overrides: Optional[Mapping[tuple[int, int],
                                      Union[SourceRoute, ItbRoute]]] = None,
    firmware: Optional[Union[str, FirmwareKind]] = None,
    routing: Optional[Union[str, RoutingKind]] = None,
    timings: Optional[Timings] = None,
    host_policy=None,
) -> BuiltNetwork:
    """Build a complete simulated installation.

    Parameters
    ----------
    topo:
        A :class:`Topology` or a named one (``"fig6"``, ``"fig1"``).
    config:
        Full configuration; the ``firmware`` / ``routing`` / ``timings``
        keyword shortcuts override individual fields.
    route_overrides:
        Hand-built routes for specific host pairs, stamped over the
        mapper output.
    host_policy:
        Optional in-transit host chooser for ITB routing (a
        :class:`~repro.routing.selectors.Selector` or plain
        :data:`~repro.routing.itb.HostPolicy`); forwarded to the
        mapper.
    """
    if config is None:
        config = NetworkConfig()
    if firmware is not None:
        config.firmware = FirmwareKind(firmware)
    if routing is not None:
        config.routing = RoutingKind(routing)
    if timings is not None:
        config.timings = timings

    if isinstance(topo, str):
        topo, auto_roles = _named_topology(topo)
        roles = {**auto_roles, **(roles or {})}
    topo.validate()

    sim = Simulator()
    fabric = Fabric(sim, topo, config.timings,
                    lanes=config.lanes, lane_policy=config.lane_policy)
    if tracer_factory is not None:
        fabric.tracer = tracer_factory()

    nics: dict[int, Nic] = {}
    gm_hosts: dict[int, GmHost] = {}
    firmware_by_host: dict[int, Firmware] = {}
    for host in topo.hosts():
        if config.recv_buffer_kind == "pool":
            buffers = BufferPool(config.pool_bytes,
                                 name=f"pool[{topo.node_name(host)}]")
        else:
            buffers = FixedBuffers(config.timings.mcp_buffers,
                                   name=f"recvq[{topo.node_name(host)}]")
        nic = Nic(sim, fabric, config.timings, host,
                  recv_buffers=buffers,
                  model_memory_contention=config.model_memory_contention)
        fw = _FIRMWARES[config.firmware](nic)
        nics[host] = nic
        firmware_by_host[host] = fw
        gm_hosts[host] = GmHost(sim, nic, seed=config.seed,
                                reliable=config.reliable)
    fabric.meta["firmware_by_host"] = firmware_by_host

    orientation = run_mapper(
        topo, nics, routing=config.routing.value,
        overrides=route_overrides, root=config.root,
        host_policy=host_policy,
    )
    return BuiltNetwork(
        sim=sim, topo=topo, fabric=fabric, nics=nics, gm_hosts=gm_hosts,
        orientation=orientation, config=config, roles=roles,
    )

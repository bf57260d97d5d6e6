"""Port-accurate topology graph.

Nodes are switches or hosts, identified by dense integer ids.  Every
link connects exactly two *(node, port)* endpoints and carries a
:class:`PortKind` (LAN or SAN) and a physical length used for
propagation delay.  Myrinet switches strip one routing byte per
traversal; the simulator therefore needs the per-switch *output port
number* for every hop, which this module resolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

__all__ = ["Link", "NodeKind", "PortKind", "Topology", "TopologyError"]


class TopologyError(ValueError):
    """Raised for ill-formed topology construction or queries."""


class NodeKind(Enum):
    """Whether a topology node is a switch or a host NIC."""

    SWITCH = "switch"
    HOST = "host"


class PortKind(Enum):
    """Physical layer of a link/port.

    Myrinet M2FM-SW8 switches expose 4 LAN and 4 SAN ports; latency
    through a switch depends on the kinds of the input and output ports
    traversed (per the paper's Section 5 methodology note).
    """

    LAN = "lan"
    SAN = "san"


@dataclass(frozen=True, slots=True)
class Link:
    """An undirected physical cable between two (node, port) endpoints.

    A *loopback* cable (both endpoints on the same switch, distinct
    ports) is legal Myrinet wiring; the paper's Figure 8 methodology
    uses one ("a loop in switch 2") to equalize the number of switch
    crossings between the compared paths.
    """

    link_id: int
    node_a: int
    port_a: int
    node_b: int
    port_b: int
    kind: PortKind
    length_m: float = 3.0

    @property
    def is_loop(self) -> bool:
        return self.node_a == self.node_b

    def other(self, node: int) -> int:
        """The opposite node — ambiguous (and an error) for loopbacks."""
        if self.is_loop:
            raise TopologyError(
                f"link {self.link_id} is a loopback; use far_end()"
            )
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise TopologyError(f"node {node} is not an endpoint of link {self.link_id}")

    def far_end(self, node: int, port: int) -> tuple[int, int]:
        """(node, port) of the opposite end, given one concrete end."""
        if (node, port) == (self.node_a, self.port_a):
            return (self.node_b, self.port_b)
        if (node, port) == (self.node_b, self.port_b):
            return (self.node_a, self.port_a)
        raise TopologyError(
            f"({node},{port}) is not an endpoint of link {self.link_id}"
        )

    def direction_from(self, node: int, port: int) -> int:
        """0 when entering at the (node_a, port_a) end, 1 otherwise."""
        if (node, port) == (self.node_a, self.port_a):
            return 0
        if (node, port) == (self.node_b, self.port_b):
            return 1
        raise TopologyError(
            f"({node},{port}) is not an endpoint of link {self.link_id}"
        )

    def port_at(self, node: int) -> int:
        """This link's port number on ``node`` (non-loopback only)."""
        if self.is_loop:
            raise TopologyError(
                f"link {self.link_id} is a loopback; ports are ambiguous"
            )
        if node == self.node_a:
            return self.port_a
        if node == self.node_b:
            return self.port_b
        raise TopologyError(f"node {node} is not an endpoint of link {self.link_id}")

    def endpoints(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Both (node, port) ends, the (a, b) order of construction."""
        return (self.node_a, self.port_a), (self.node_b, self.port_b)


@dataclass
class _Node:
    node_id: int
    kind: NodeKind
    name: str
    n_ports: int
    # port number -> link_id
    ports: dict[int, int] = field(default_factory=dict)


class Topology:
    """Mutable builder + immutable-query network description."""

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._nodes: list[_Node] = []
        self._links: list[Link] = []
        self._derived: dict = {}

    # ------------------------------------------------------------------
    # derived-data memoization
    # ------------------------------------------------------------------

    def derived(self, key, build):
        """Memoize pure topology-derived data under ``key``.

        Nodes and links are append-only, so ``(n_nodes, n_links)`` is a
        complete mutation signature: any construction call changes it
        and invalidates every cached entry.  Cached values are shared —
        callers must treat them as immutable.

        Routing (adjacency, BFS distances) and the query helpers below
        are called per host pair during route computation; memoizing
        them turns the mapper's all-pairs build from quadratic
        re-derivation into dictionary lookups.
        """
        # setdefault keeps instances deserialized from older pickles working.
        cache = self.__dict__.setdefault("_derived", {})
        sig = (len(self._nodes), len(self._links))
        hit = cache.get(key)
        if hit is not None and hit[0] == sig:
            return hit[1]
        value = build()
        cache[key] = (sig, value)
        return value

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_switch(self, n_ports: int = 8, name: str = "") -> int:
        """Add a switch with ``n_ports`` ports; return its node id."""
        if n_ports < 1:
            raise TopologyError("switch needs at least one port")
        nid = len(self._nodes)
        self._nodes.append(
            _Node(nid, NodeKind.SWITCH, name or f"sw{nid}", n_ports)
        )
        return nid

    def add_host(self, name: str = "") -> int:
        """Add a host (single NIC port, port number 0); return node id."""
        nid = len(self._nodes)
        self._nodes.append(_Node(nid, NodeKind.HOST, name or f"host{nid}", 1))
        return nid

    def connect(
        self,
        node_a: int,
        port_a: int,
        node_b: int,
        port_b: int,
        kind: PortKind = PortKind.SAN,
        length_m: float = 3.0,
    ) -> int:
        """Cable ``(node_a, port_a)`` to ``(node_b, port_b)``; return link id."""
        na, nb = self._node(node_a), self._node(node_b)
        for node, port in ((na, port_a), (nb, port_b)):
            if not 0 <= port < node.n_ports:
                raise TopologyError(
                    f"{node.name} has no port {port} (0..{node.n_ports - 1})"
                )
        if node_a == node_b:
            # Loopback cable: both ends on one switch, distinct ports.
            if na.kind is not NodeKind.SWITCH:
                raise TopologyError("loopback cables only make sense on switches")
            if port_a == port_b:
                raise TopologyError("loopback needs two distinct ports")
        if port_a in na.ports or port_b in nb.ports:
            raise TopologyError("port already cabled")
        link_id = len(self._links)
        link = Link(link_id, node_a, port_a, node_b, port_b, kind, length_m)
        self._links.append(link)
        na.ports[port_a] = link_id
        nb.ports[port_b] = link_id
        return link_id

    def attach_host(
        self,
        switch: int,
        switch_port: int,
        kind: PortKind = PortKind.SAN,
        name: str = "",
        length_m: float = 3.0,
    ) -> int:
        """Convenience: add a host and cable it to ``switch``; return host id."""
        host = self.add_host(name=name)
        self.connect(switch, switch_port, host, 0, kind=kind, length_m=length_m)
        return host

    def without_links(self, link_ids: "set[int] | frozenset[int]") -> "Topology":
        """A degraded copy of this topology with some cables removed.

        Node ids are preserved (nodes are recreated in id order), so
        routes computed on the copy are valid on the original fabric;
        link ids shift to stay sequential, which is fine because
        routing works in (switch, port) terms.  Used by the fault
        injector to model the mapper's view after a link/switch/host
        failure: hosts whose only cable is removed disappear from
        ``hosts_on`` and stop being in-transit candidates.
        """
        clone = Topology(name=f"{self.name}-degraded")
        for node in self._nodes:
            if node.kind is NodeKind.SWITCH:
                clone.add_switch(node.n_ports, name=node.name)
            else:
                clone.add_host(name=node.name)
        for link in self._links:
            if link.link_id in link_ids:
                continue
            clone.connect(link.node_a, link.port_a, link.node_b,
                          link.port_b, kind=link.kind,
                          length_m=link.length_m)
        return clone

    def free_port(self, switch: int) -> int:
        """Lowest uncabled port number on ``switch``."""
        node = self._node(switch)
        for p in range(node.n_ports):
            if p not in node.ports:
                return p
        raise TopologyError(f"{node.name} has no free ports")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _node(self, node_id: int) -> _Node:
        try:
            return self._nodes[node_id]
        except IndexError:
            raise TopologyError(f"no node {node_id}") from None

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(self._links)

    def link(self, link_id: int) -> Link:
        """The link with a given id."""
        try:
            return self._links[link_id]
        except IndexError:
            raise TopologyError(f"no link {link_id}") from None

    def kind(self, node_id: int) -> NodeKind:
        """Whether a node is a switch or a host."""
        return self._node(node_id).kind

    def node_name(self, node_id: int) -> str:
        """Human-readable node name."""
        return self._node(node_id).name

    def is_switch(self, node_id: int) -> bool:
        """True when the node is a switch."""
        return self._node(node_id).kind is NodeKind.SWITCH

    def is_host(self, node_id: int) -> bool:
        """True when the node is a host."""
        return self._node(node_id).kind is NodeKind.HOST

    def switches(self) -> list[int]:
        """All switch node ids, ascending."""
        return [n.node_id for n in self._nodes if n.kind is NodeKind.SWITCH]

    def hosts(self) -> list[int]:
        """All host node ids, ascending."""
        return [n.node_id for n in self._nodes if n.kind is NodeKind.HOST]

    def n_ports(self, node_id: int) -> int:
        """Port count of a node."""
        return self._node(node_id).n_ports

    def link_at(self, node_id: int, port: int) -> Optional[Link]:
        """The link cabled at (node, port), or None if the port is free."""
        node = self._node(node_id)
        link_id = node.ports.get(port)
        return None if link_id is None else self._links[link_id]

    def ports_of(self, node_id: int) -> dict[int, Link]:
        """Cabled ports of a node: port number -> link."""
        node = self._node(node_id)
        return {p: self._links[lid] for p, lid in sorted(node.ports.items())}

    def neighbors(self, node_id: int) -> list[tuple[int, int, Link]]:
        """(port, far_node, link) triples, sorted by port number.

        A loopback cable contributes two entries (one per port), both
        with ``far_node == node_id``.  The returned list is memoized —
        treat it as immutable.
        """
        return self.derived(("neighbors", node_id),
                            lambda: self._build_neighbors(node_id))

    def _build_neighbors(self, node_id: int) -> list[tuple[int, int, Link]]:
        out = []
        for port, link in self.ports_of(node_id).items():
            far_node, _far_port = link.far_end(node_id, port)
            out.append((port, far_node, link))
        return out

    def switch_neighbors(self, switch: int) -> list[tuple[int, int, Link]]:
        """Like :meth:`neighbors` but restricted to *other* switches.

        Loopback cables are excluded: routing algorithms never use
        them (they exist only for hand-built latency-equalization
        routes, per the paper's Figure 8 methodology).  Memoized —
        treat the returned list as immutable.
        """
        return self.derived(("switch_neighbors", switch), lambda: [
            (p, n, l)
            for (p, n, l) in self.neighbors(switch)
            if self.is_switch(n) and not l.is_loop
        ])

    def hosts_on(self, switch: int) -> list[int]:
        """Hosts directly attached to ``switch`` (sorted by id).

        Memoized — treat the returned list as immutable.
        """
        return self.derived(("hosts_on", switch), lambda: sorted(
            n for (_p, n, _l) in self.neighbors(switch) if self.is_host(n)
        ))

    def switch_of(self, host: int) -> int:
        """The switch a host's NIC is cabled to."""
        node = self._node(host)
        if node.kind is not NodeKind.HOST:
            raise TopologyError(f"{node.name} is not a host")
        if 0 not in node.ports:
            raise TopologyError(f"host {node.name} is not cabled")
        link = self._links[node.ports[0]]
        other, _port = link.far_end(host, 0)
        if not self.is_switch(other):
            raise TopologyError(f"host {node.name} cabled to a non-switch")
        return other

    def host_link(self, host: int) -> Link:
        """The NIC cable of ``host``."""
        node = self._node(host)
        if node.kind is not NodeKind.HOST or 0 not in node.ports:
            raise TopologyError(f"{node.name} is not a cabled host")
        return self._links[node.ports[0]]

    def links_between(self, node_a: int, node_b: int) -> list[Link]:
        """All parallel cables between two nodes (sorted by link id).

        With ``node_a == node_b`` this returns the loopback cables of
        that switch.  Memoized — treat the returned list as immutable.
        """
        index = self.derived("links_between", self._build_link_index)
        if node_a <= node_b:
            return index.get((node_a, node_b), [])
        return index.get((node_b, node_a), [])

    def _build_link_index(self) -> dict[tuple[int, int], list[Link]]:
        index: dict[tuple[int, int], list[Link]] = {}
        for link in self._links:
            a, b = link.node_a, link.node_b
            key = (a, b) if a <= b else (b, a)
            index.setdefault(key, []).append(link)
        return index

    def port_toward(self, node_a: int, node_b: int) -> int:
        """Output port on ``node_a`` of the lowest-id link to ``node_b``.

        Served from a flat memoized ``(from, to) -> port`` table: route
        construction calls this once per hop of every route, and the
        per-call list lookup through :meth:`links_between` dominated
        batched all-pairs builds on large fabrics.
        """
        table = self.derived("port_toward", self._build_port_table)
        port = table.get((node_a, node_b))
        if port is None:
            links = self.links_between(node_a, node_b)
            if links:
                # Only loopback cables are absent from the table; defer
                # to port_at for the legacy ambiguity error.
                return links[0].port_at(node_a)
            raise TopologyError(
                f"no link between {self.node_name(node_a)} and"
                f" {self.node_name(node_b)}"
            )
        return port

    def _build_port_table(self) -> dict[tuple[int, int], int]:
        # Links iterate in ascending id order, so setdefault keeps the
        # lowest-id cable of every parallel bundle — same pick as
        # links_between(...)[0].  Loopbacks are skipped (their port is
        # ambiguous; port_at raises for them, preserved above).
        table: dict[tuple[int, int], int] = {}
        for link in self._links:
            if link.is_loop:
                continue
            (na, pa), (nb, pb) = link.endpoints()
            table.setdefault((na, nb), pa)
            table.setdefault((nb, na), pb)
        return table

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`TopologyError` on structural problems.

        Checks: every host cabled to exactly one switch; the switch
        fabric is connected; every host can reach every other host.
        Connectivity is a breadth-first search over
        :meth:`switch_neighbors`, which leaves out host cables and
        loopbacks.
        """
        for host in self.hosts():
            self.switch_of(host)  # raises when mis-cabled
        switches = self.switches()
        if switches:
            seen = {switches[0]}
            frontier = [switches[0]]
            for switch in frontier:  # grows while it is walked
                for _port, peer, _link in self.switch_neighbors(switch):
                    if peer not in seen:
                        seen.add(peer)
                        frontier.append(peer)
            if len(seen) != len(switches):
                raise TopologyError("switch fabric is not connected")
        if self.hosts() and not switches:
            raise TopologyError("hosts present but no switches")

    def walk_route(self, src_host: int, routing_ports: list[int]) -> int:
        """Follow a Myrinet source route from ``src_host``.

        ``routing_ports`` holds one output-port byte per switch
        traversed.  Returns the node reached after consuming all bytes
        (which must be a host for a deliverable route).  Raises on a
        dangling port or a byte sequence that leaves the fabric early.
        """
        link = self.host_link(src_host)
        current, _port = link.far_end(src_host, 0)
        for i, port in enumerate(routing_ports):
            if not self.is_switch(current):
                raise TopologyError(
                    f"route byte {i} consumed at non-switch"
                    f" {self.node_name(current)}"
                )
            nxt_link = self.link_at(current, port)
            if nxt_link is None:
                raise TopologyError(
                    f"route byte {i}: {self.node_name(current)} port {port}"
                    " is not cabled"
                )
            current, _port = nxt_link.far_end(current, port)
        return current

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Topology {self.name!r} switches={len(self.switches())}"
            f" hosts={len(self.hosts())} links={len(self._links)}>"
        )

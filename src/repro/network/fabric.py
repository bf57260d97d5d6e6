"""Fabric: directed channels, lanes, and switch port bookkeeping.

Every physical cable becomes two :class:`Channel` objects (one per
direction).  A channel is a *physical link direction* hosting
``n_lanes`` independently arbitrated lanes — each lane a FIFO
:class:`~repro.sim.resources.Resource` of capacity 1 (one wormhole
packet per lane) — plus the physical parameters needed to time a
traversal.  With the default ``lanes=1`` this degenerates to the
stock Myrinet link (exactly one packet per link direction, which is
what the paper's switches implement); configuring more lanes models
the virtual-channel alternative the paper argues against, with lane
selection delegated to a pluggable policy
(:mod:`repro.network.lanes`: fixed, round-robin, or dateline escape
lanes for deadlock freedom).

Channels are keyed ``(link_id, direction)`` with direction 0 meaning
"entering at the (node_a, port_a) end", which stays well-defined for
loopback cables (both ends on one switch).  Lanes are keyed
``(link_id, direction, lane)`` — the claim index, the lane-aware CDG
analysis, and the per-lane usage view all use this triple.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro.core.timings import Timings
from repro.network.lanes import LanePolicy, make_lane_policy
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.topology.graph import Link, PortKind, Topology, TopologyError

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.routing.routes import SourceRoute

__all__ = ["Channel", "ExpressStats", "Fabric", "FlightPlan"]


class Channel:
    """One direction of a physical cable, hosting ``n_lanes`` lanes.

    ``lanes[0]`` is the default lane; the :attr:`resource` property
    aliases it so single-lane code keeps working unchanged.  Each lane
    counts its own grants and busy time (see
    :class:`~repro.sim.resources.Resource`).
    """

    __slots__ = ("link", "direction", "from_node", "from_port",
                 "to_node", "to_port", "lanes", "prop_ns")

    def __init__(self, link: Link, direction: int, from_node: int,
                 from_port: int, to_node: int, to_port: int,
                 lanes: list[Resource], prop_ns: float) -> None:
        self.link = link
        #: 0 = entering at (node_a, port_a), 1 = at (node_b, port_b).
        self.direction = direction
        self.from_node = from_node
        self.from_port = from_port
        self.to_node = to_node
        self.to_port = to_port
        self.lanes = lanes
        self.prop_ns = prop_ns

    @property
    def resource(self) -> Resource:
        """Lane 0 (the whole channel when ``n_lanes == 1``)."""
        return self.lanes[0]

    @property
    def n_lanes(self) -> int:
        return len(self.lanes)

    @property
    def key(self) -> tuple[int, int]:
        return (self.link.link_id, self.direction)

    def lane_key(self, lane: int) -> tuple[int, int, int]:
        """The ``(link_id, direction, lane)`` key of one lane."""
        return (self.link.link_id, self.direction, lane)

    @property
    def kind(self) -> PortKind:
        return self.link.kind

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Channel link{self.link.link_id}"
            f" ({self.from_node}:{self.from_port})->"
            f"({self.to_node}:{self.to_port})>"
        )


class ExpressStats:
    """Counters for the worm express lane (see ``docs/ENGINE_FASTPATH.md``).

    ``hits`` counts worms that launched on the closed-form express
    path, ``fallbacks`` counts launches that took the stepped
    generator, and ``stepped_hops`` counts switch hops actually
    traversed hop by hop (fallback launches plus the remainder of
    demoted express flights).
    """

    __slots__ = ("hits", "fallbacks", "stepped_hops")

    def __init__(self) -> None:
        self.hits = 0
        self.fallbacks = 0
        self.stepped_hops = 0

    def as_dict(self) -> dict:
        """The counters as a plain dict (for runner summaries)."""
        return {"hits": self.hits, "fallbacks": self.fallbacks,
                "stepped_hops": self.stepped_hops}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ExpressStats hits={self.hits}"
                f" fallbacks={self.fallbacks}"
                f" stepped_hops={self.stepped_hops}>")


class FlightPlan:
    """Pre-resolved traversal data for one source-route segment.

    Memoized per :class:`~repro.routing.routes.SourceRoute` on the
    fabric: the directed channel for every hop (``channels[0]`` is the
    host injection cable), the per-hop fall-through latencies, and the
    channel keys.  Shared by the stepped and express worm paths, so
    channel lookup and fall-through resolution happen once per
    distinct segment instead of once per hop per packet.

    Lane assignment is *not* part of the plan — it is chosen per
    launch by the fabric's lane policy, for every lane count alike.
    """

    __slots__ = ("segment", "channels", "keys", "falls", "n_hops",
                 "has_duplicate")

    def __init__(self, segment: "SourceRoute",
                 channels: tuple[Channel, ...]) -> None:
        self.segment = segment
        self.channels = channels
        self.keys = tuple(ch.key for ch in channels)
        self.n_hops = len(channels) - 1
        self.has_duplicate = len(set(self.keys)) != len(self.keys)
        self.falls: tuple[float, ...] = ()  # filled by Fabric.flight_plan

    def lane_keys(self, lanes: tuple[int, ...]) -> tuple:
        """Per-channel lane keys for one launch's lane assignment."""
        return tuple([(link_id, direction, lane) for (link_id, direction), lane
                      in zip(self.keys, lanes)])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlightPlan {self.segment!r} hops={self.n_hops}>"


class Fabric:
    """All channels of a topology plus traversal-timing helpers."""

    def __init__(self, sim: Simulator, topo: Topology, timings: Timings,
                 lanes: int = 1,
                 lane_policy: Union[str, LanePolicy] = "fixed") -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.sim = sim
        self.topo = topo
        self.timings = timings
        #: Lanes per channel (uniform across the fabric) and the
        #: policy assigning a lane per channel at worm launch.
        self.n_lanes = lanes
        self.lane_policy = make_lane_policy(lane_policy)
        #: Gate for the worm express lane (equivalence tests force the
        #: stepped path through this).
        self.express_enabled = True
        self.express_stats = ExpressStats()
        #: Memoized fall-through per (in kind, out kind) — avoids the
        #: Timings method call + dict rebuild on every hop.
        self._fall_ns: dict[tuple[PortKind, PortKind], float] = dict(
            timings.fall_through_ns)
        self._plans: dict["SourceRoute", FlightPlan] = {}
        #: Claim index: lane key (link, direction, lane) -> worms whose
        #: in-flight segment claims that lane (registered at launch,
        #: released at completion, for stepped and express worms
        #: alike).  Express eligibility and demotion both consult it;
        #: worms on different lanes of one channel never conflict.
        self._claimed_by: dict[tuple[int, int, int], list] = {}
        #: Shared registry for higher layers (e.g. "firmware_by_host",
        #: filled by the network builder so worms can find destination
        #: firmware objects).
        self.meta: dict = {}
        #: Channel keys whose physical cable is currently down (fault
        #: injection) — a dead cable takes every lane with it, so this
        #: stays channel-keyed.  Empty on healthy networks — the worm
        #: hot paths guard every check on the set being non-empty, so
        #: the fault-free timing is untouched.
        self.down_keys: set[tuple[int, int]] = set()
        #: Hook invoked when a worm dies at a down channel (set by the
        #: fault injector to account for the lost packet).
        self.on_worm_lost = None
        #: Causal span tracer (:class:`repro.obs.tracing.SpanTracer`)
        #: or ``None``.  The GM host, firmware, and worms all discover
        #: tracing through this attribute; every instrumentation point
        #: guards on it being non-None, so the disabled path costs one
        #: attribute read.
        self.tracer = None
        self._channels: dict[tuple[int, int], Channel] = {}
        for link in topo.links:
            ends = link.endpoints()
            for direction in (0, 1):
                from_node, from_port = ends[direction]
                to_node, to_port = ends[1 - direction]
                base = (
                    f"ch:link{link.link_id}:"
                    f"{from_node}.{from_port}->{to_node}.{to_port}"
                )
                # Lane 0 keeps the single-lane resource name (event
                # names derive from it; goldens depend on the bytes).
                lane_resources = [
                    Resource(sim, capacity=1,
                             name=base if lane == 0 else f"{base}:l{lane}")
                    for lane in range(lanes)
                ]
                self._channels[(link.link_id, direction)] = Channel(
                    link=link,
                    direction=direction,
                    from_node=from_node,
                    from_port=from_port,
                    to_node=to_node,
                    to_port=to_port,
                    lanes=lane_resources,
                    prop_ns=timings.propagation(link.length_m),
                )

    # ------------------------------------------------------------------

    def channel(self, link_id: int, direction: int) -> Channel:
        """The channel for (cable, direction); raises if unknown."""
        try:
            return self._channels[(link_id, direction)]
        except KeyError:
            raise TopologyError(
                f"no channel ({link_id}, {direction})"
            ) from None

    def out_channel(self, node: int, port: int) -> Channel:
        """Channel leaving ``node`` through its ``port``."""
        link = self.topo.link_at(node, port)
        if link is None:
            raise TopologyError(f"node {node} port {port} is not cabled")
        return self.channel(link.link_id, link.direction_from(node, port))

    def channel_between(self, from_node: int, to_node: int) -> Channel:
        """Channel of the lowest-id non-loop cable from one node to another."""
        links = [l for l in self.topo.links_between(from_node, to_node)
                 if not l.is_loop]
        if not links:
            raise TopologyError(f"no cable between {from_node} and {to_node}")
        link = links[0]
        return self.out_channel(from_node, link.port_at(from_node))

    def host_out(self, host: int) -> Channel:
        """Injection channel of a host's NIC (host port is always 0)."""
        return self.out_channel(host, 0)

    def host_in(self, host: int) -> Channel:
        """Delivery channel into a host's NIC."""
        link = self.topo.host_link(host)
        far_node, far_port = link.far_end(host, 0)
        return self.out_channel(far_node, far_port)

    def channels(self) -> list[Channel]:
        """Every channel of the fabric, in stable key order."""
        return [self._channels[k] for k in sorted(self._channels)]

    # ------------------------------------------------------------------

    def fall_through(self, in_channel: Channel, out_channel: Channel) -> float:
        """Switch fall-through latency between two port kinds."""
        return self._fall_ns[in_channel.kind, out_channel.kind]

    def utilization_snapshot(self) -> dict[tuple[int, int], int]:
        """Held lanes per channel (for contention diagnostics).

        Channel-keyed and lane-summed: with one lane the value is 0/1
        as before; with N lanes it ranges 0..N.  Use
        :meth:`lane_utilization_snapshot` for the per-lane view.
        """
        return {
            key: sum(res.in_use for res in ch.lanes)
            for key, ch in self._channels.items()
        }

    def lane_utilization_snapshot(self) -> dict[tuple[int, int, int], int]:
        """Per-lane occupancy, keyed ``(link_id, direction, lane)``."""
        return {
            ch.lane_key(lane): res.in_use
            for ch in self._channels.values()
            for lane, res in enumerate(ch.lanes)
        }

    # -- dynamic faults ---------------------------------------------------

    def set_link_down(self, link_id: int) -> list:
        """Mark both directions of a cable down; return the claimants.

        The returned worms are every in-flight worm whose segment
        claims *any lane* of either direction of the cable — holders,
        queued waiters, and approaching heads alike.  Wormhole packets
        hold their whole path until the tail drains, so a dead link
        under any part of a claimed segment cuts that packet, whatever
        lane it rides.  The caller (the fault injector) decides what
        to do with them (kill + account).
        """
        victims: list = []
        claimed = self._claimed_by
        for direction in (0, 1):
            key = (link_id, direction)
            if key not in self._channels:
                raise TopologyError(f"no link {link_id} in this fabric")
            self.down_keys.add(key)
            for lane in range(self.n_lanes):
                for worm in claimed.get((link_id, direction, lane), ()):
                    if worm not in victims:
                        victims.append(worm)
        return victims

    def set_link_up(self, link_id: int) -> None:
        """Repair a cable downed by :meth:`set_link_down`."""
        self.down_keys.discard((link_id, 0))
        self.down_keys.discard((link_id, 1))

    def link_is_down(self, link_id: int) -> bool:
        """True while ``link_id`` is marked down by a fault."""
        return (link_id, 0) in self.down_keys

    # -- worm flight plans and the lane-claim index -----------------------

    def flight_plan(self, segment: "SourceRoute") -> FlightPlan:
        """The memoized :class:`FlightPlan` for ``segment``."""
        plan = self._plans.get(segment)
        if plan is None:
            channels = [self.host_out(segment.src)]
            for switch, port in zip(segment.switch_path, segment.ports):
                channels.append(self.out_channel(switch, port))
            plan = FlightPlan(segment, tuple(channels))
            fall = self._fall_ns
            plan.falls = tuple(
                fall[channels[i].kind, channels[i + 1].kind]
                for i in range(len(channels) - 1)
            )
            self._plans[segment] = plan
        return plan

    def select_lanes(self, plan: FlightPlan) -> tuple[int, ...]:
        """One lane per plan channel for a launch (policy-delegated)."""
        return self.lane_policy.lanes_for(plan, self)

    def claim_horizon(self, keys: tuple, now: float) -> int:
        """Index of the first claimed lane key, interrupting claimants.

        Returns ``len(keys)`` when no lane of the launcher's assignment
        is claimed: only then may the worm fly express.  Every
        intersecting *express* claimant — on any key, not just the
        first conflicted one — is interrupted first, materialized or
        demoted (see ``Worm._express_interrupted``), because from this
        instant the launcher can observe, and queue on, its lanes.
        """
        claimed = self._claimed_by
        horizon = len(keys)
        for index, key in enumerate(keys):
            worms = claimed.get(key)
            if worms:
                if index < horizon:
                    horizon = index
                for worm in tuple(worms):
                    if worm._express_live:
                        worm._express_interrupted(now)
        return horizon

    def register_claims(self, worm, keys: tuple) -> None:
        """Record ``worm``'s claim on every lane of its assignment."""
        claimed = self._claimed_by
        for key in keys:
            claimed.setdefault(key, []).append(worm)

    def release_claims(self, worm, keys: tuple) -> None:
        """Drop ``worm``'s claims (at completion of its segment)."""
        claimed = self._claimed_by
        for key in keys:
            worms = claimed.get(key)
            if worms is not None:
                try:
                    worms.remove(worm)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not worms:
                    del claimed[key]

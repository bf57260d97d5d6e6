"""Fault injection: lossy links, corrupted packets, and dynamic faults.

GM advertises "reliable and ordered packet delivery in presence of
network faults" (paper Section 3).  To exercise that claim, this
module lets tests and experiments degrade a built network two ways:

* **probabilistic faults** — each delivered data packet is rolled
  against the plan's corruption/loss probabilities; a corrupt packet
  fails the destination NIC's CRC check and is dropped, a lost packet
  vanishes mid-flight (GM's reliability layer then retransmits),
* **dynamic fault events** — a cable dies, a switch resets, or an
  in-transit host goes down at a scheduled simulation time (with an
  optional repair time).  In-flight worms whose path crosses the dead
  element are cut — their channels released so the fabric never
  wedges — and after a re-discovery delay the mapper recomputes
  routes on the degraded topology, re-splitting ITB paths whose
  in-transit host died through an alternate host.

Faults are deterministic per (seed, packet): the fate of a packet is
keyed by a hash of ``(plan.seed, packet id)``, so adding an unrelated
flow never shifts another packet's outcome and runs replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.mcp.buffers import NicBufferError

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.core.builder import BuiltNetwork
    from repro.mcp.firmware import Firmware, TransitPacket
    from repro.network.worm import Worm

__all__ = ["FaultEvent", "FaultInjector", "FaultPlan", "install_fault_plan"]

#: Valid :class:`FaultEvent` kinds.
FAULT_KINDS = ("link-down", "switch-reset", "host-down")

_U32 = float(2 ** 32)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault on a physical element.

    Attributes
    ----------
    kind:
        ``"link-down"`` (one cable), ``"switch-reset"`` (every cable
        of a switch, modeling the switch losing its crossbar state),
        or ``"host-down"`` (the host's NIC cable — the scenario that
        matters for in-transit hosts).
    target:
        Node or link id the fault hits (link id for ``link-down``,
        switch id for ``switch-reset``, host id for ``host-down``).
    at_ns:
        Simulation time the fault strikes.
    repair_ns:
        Outage duration; ``None`` means the element never comes back.
    """

    kind: str
    target: int
    at_ns: float
    repair_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of"
                f" {FAULT_KINDS}")
        if self.at_ns < 0:
            raise ValueError("fault time must be >= 0")
        if self.repair_ns is not None and self.repair_ns <= 0:
            raise ValueError("repair time must be positive (or None)")


@dataclass
class FaultPlan:
    """Per-network fault configuration.

    Attributes
    ----------
    corrupt_probability:
        Chance a delivered packet arrives CRC-broken.
    loss_probability:
        Chance a packet is lost outright in flight.
    seed:
        Seeds the per-packet fate hash (deterministic).
    events:
        Scheduled dynamic :class:`FaultEvent`\\ s.
    remap_delay_ns:
        Modeled time between a fault (or repair) and the mapper's
        recomputed route tables reaching the NICs.
    """

    corrupt_probability: float = 0.0
    loss_probability: float = 0.0
    seed: int = 99
    events: tuple = ()
    remap_delay_ns: float = 50_000.0
    # counters
    corrupted: int = 0
    lost: int = 0
    killed_in_flight: int = 0
    faults_injected: int = 0
    repairs: int = 0
    remap_events: int = 0

    def __post_init__(self) -> None:
        for p in (self.corrupt_probability, self.loss_probability):
            if not 0.0 <= p <= 1.0:
                raise ValueError("fault probabilities must be in [0, 1]")
        self.events = tuple(self.events)

    def fate_u01(self, pid: int) -> float:
        """Deterministic uniform [0, 1) draw keyed by (seed, pid)."""
        word = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(pid,)).generate_state(1)[0]
        return float(word) / _U32

    def roll(self, pid: int) -> str:
        """Fate of packet ``pid``: 'ok', 'corrupt', or 'lost'.

        Keyed by ``(seed, pid)``: the same packet id always draws the
        same fate under the same plan seed, independent of every other
        packet.  Retransmissions carry fresh packet ids, so each wire
        attempt is rolled independently.
        """
        x = self.fate_u01(pid)
        if x < self.loss_probability:
            self.lost += 1
            return "lost"
        if x < self.loss_probability + self.corrupt_probability:
            self.corrupted += 1
            return "corrupt"
        return "ok"


class FaultInjector:
    """Executes a plan's dynamic fault events against a built network.

    On each fault the injector marks the affected cables down on the
    fabric, kills every in-flight worm whose claimed segment crosses
    them (releasing channels so no simulation wedges), and schedules a
    route remap after ``plan.remap_delay_ns`` — the stand-in for the
    mapper's re-discovery pass, which cannot run inside the event loop
    (see :func:`repro.gm.discovery.discover_network`).  Repairs restore
    the cables and trigger another remap back to the original routes.
    """

    def __init__(self, net: "BuiltNetwork", plan: FaultPlan) -> None:
        self.net = net
        self.plan = plan
        self.sim = net.sim
        self.fabric = net.fabric
        self.down_links: set[int] = set()
        self.dead_hosts: set[int] = set()
        self._down_refs: dict[int, int] = {}
        self.fabric.on_worm_lost = self._on_worm_lost
        self.fabric.meta["fault_injector"] = self
        for event in plan.events:
            self.sim.schedule_at(event.at_ns,
                                 lambda e=event: self._apply(e))

    # -- event plumbing -------------------------------------------------

    def _links_for(self, event: FaultEvent) -> list[int]:
        topo = self.net.topo
        if event.kind == "link-down":
            return [event.target]
        if event.kind == "switch-reset":
            return sorted(
                link.link_id for link in topo.links
                if event.target in (link.node_a, link.node_b))
        return [topo.host_link(event.target).link_id]

    def _apply(self, event: FaultEvent) -> None:
        self.plan.faults_injected += 1
        victims: list = []
        for link_id in self._links_for(event):
            refs = self._down_refs.get(link_id, 0)
            self._down_refs[link_id] = refs + 1
            if refs == 0:
                self.down_links.add(link_id)
                for worm in self.fabric.set_link_down(link_id):
                    if worm not in victims:
                        victims.append(worm)
        if event.kind == "host-down":
            self.dead_hosts.add(event.target)
        for worm in victims:
            self._kill_worm(worm, f"fault:{event.kind}")
        self.sim.schedule(self.plan.remap_delay_ns, self._remap)
        if event.repair_ns is not None:
            self.sim.schedule_at(event.at_ns + event.repair_ns,
                                 lambda: self._repair(event))

    def _repair(self, event: FaultEvent) -> None:
        self.plan.repairs += 1
        for link_id in self._links_for(event):
            refs = self._down_refs.get(link_id, 1) - 1
            self._down_refs[link_id] = refs
            if refs == 0:
                self.down_links.discard(link_id)
                self.fabric.set_link_up(link_id)
        if event.kind == "host-down":
            self.dead_hosts.discard(event.target)
        self.sim.schedule(self.plan.remap_delay_ns, self._remap)

    # -- in-flight packet teardown --------------------------------------

    def _kill_worm(self, worm: "Worm", reason: str) -> None:
        worm.kill()
        self._mark_lost(worm, reason)

    def _on_worm_lost(self, worm: "Worm") -> None:
        """A worm launched after the fault died at a down channel."""
        self._mark_lost(worm, "link-down")

    def _mark_lost(self, worm: "Worm", reason: str) -> None:
        tp: Optional["TransitPacket"] = worm.meta.get("tp")
        if tp is None:
            return
        # Unwedge the sender first, and on every kill: its send engine
        # holds until the drain event fires, even when this packet was
        # already counted lost on an earlier segment.
        drained = worm.meta.get("on_drained")
        if drained is not None and not drained.triggered:
            drained.succeed()
        if getattr(tp, "_fault_lost", False):
            return
        tp._fault_lost = True  # type: ignore[attr-defined]
        self.plan.killed_in_flight += 1
        if not tp.dropped:
            tp.dropped = True
            tp.drop_reason = reason
        src_nic = self.net.nics.get(tp.src)
        if src_nic is not None:
            src_nic.stats.packets_lost_in_flight += 1
            src_nic.emit("fault_killed")
        # Free a receive-buffer slot the destination may already hold
        # for this packet (claimed at on_header, never to complete) —
        # unless cut-through forwarding already took ownership: once an
        # in-transit host advanced ``seg_index`` past this worm's
        # segment, its re-injection drain frees the slot, and a second
        # release here would corrupt the buffer accounting.
        fw = getattr(worm, "observer", None)
        forward_owns = (
            tp.seg_index < len(tp.route.segments)
            and tp.route.segments[tp.seg_index] is not worm.segment
        )
        if fw is not None and getattr(fw, "nic", None) is not None \
                and not forward_owns:
            try:
                fw.nic.recv_buffers.release(tp)
            except NicBufferError:
                pass  # packet was not (or no longer) buffered there
            else:
                fw._admit_recv_waiter()
        on_delivered, tp.on_delivered = tp.on_delivered, None
        if on_delivered is not None:
            on_delivered(tp)

    # -- route repair ---------------------------------------------------

    def _remap(self) -> None:
        """Recompute route tables on the degraded topology.

        Models the mapper's re-discovery + route distribution pass: the
        degraded topology (down cables removed) is re-routed with the
        network's configured policy and the resulting routes stamped
        over the NIC tables of every reachable host.  Routes toward
        unreachable hosts are left stale — packets sent there die on
        the wire and the sender's retransmission budget converts that
        into a graceful :class:`~repro.gm.host.GmSendError`.
        """
        from repro.gm.mapper import remap_tables

        self.plan.remap_events += 1
        remap_tables(self.net, down_links=self.down_links,
                     dead_hosts=self.dead_hosts)


def install_fault_plan(net: "BuiltNetwork",
                       plan: FaultPlan) -> Optional[FaultInjector]:
    """Degrade ``net`` with ``plan``.

    Wraps every NIC firmware's delivery path with the probabilistic
    corruption/loss rolls, and — when the plan schedules dynamic
    events — builds and returns a :class:`FaultInjector` for them.

    Only data-bearing packets (GM data, IP fragments, TCP segments)
    with at least one byte of payload are subject to probabilistic
    faults; mapping scouts and zero-payload control packets are left
    alone so experiments converge (real GM retransmits those the same
    way, it's just noise for our purposes).
    """
    for _host, fw in net.fabric.meta["firmware_by_host"].items():
        _wrap_firmware(fw, plan)
    net.fabric.meta["fault_plan"] = plan
    if plan.events:
        return FaultInjector(net, plan)
    return None


def _wrap_firmware(fw: "Firmware", plan: FaultPlan) -> None:
    original_on_complete = fw.on_complete

    def on_complete(worm, t_now: float) -> None:
        tp = worm.meta["tp"]
        eligible = (
            not tp.dropped
            and tp.payload_len > 0
            and tp.gm.get("kind", "data") in ("data", "ip", "tcp")
            and not worm.image.is_itb()  # fault applies at final NIC
        )
        if eligible:
            fate = plan.roll(tp.pid)
            if fate != "ok":
                tp.dropped = True
                tp.drop_reason = (
                    "crc-error" if fate == "corrupt" else "lost-in-flight"
                )
                fw.nic.emit("fault_" + fate)
                # Free the receive buffer the claim took at on_header.
                try:
                    fw.nic.recv_buffers.release(tp)
                except NicBufferError:
                    pass  # packet was flushed before buffering
                else:
                    fw._admit_recv_waiter()
                drained = worm.meta.get("on_drained")
                if drained is not None and not drained.triggered:
                    drained.succeed()
                if tp.on_delivered is not None:
                    tp.on_delivered(tp)
                return
        original_on_complete(worm, t_now)

    fw.on_complete = on_complete  # type: ignore[method-assign]

"""EXP-VC: in-transit buffers vs virtual channels, head to head.

The paper proposes ITBs *instead of* adding virtual channels to
Myrinet switches (Section 1: commercial switches have no VCs and the
authors want a software-only fix), but never measures against them —
the obvious missing experiment.  With the multi-lane fabric
(:mod:`repro.network.fabric`) the comparison is one config away; this
harness runs it.

Mechanisms compared (each a ``(routing, lanes, lane_policy)`` arm):

``updown``
    Stock GM: up*/down* routing on the single-lane fabric — the
    baseline both mechanisms try to beat.

``itb``
    The paper's mechanism: minimal-with-ejection routing, one lane.

``vc``
    The hardware alternative: true minimal routing made deadlock-free
    by escape lanes (dateline assignment), with the lane count sized
    by :func:`repro.routing.cdg.lanes_required` so the static
    guarantee holds.  No ejection — packets stay on the wire.

``itb+vc``
    Both mechanisms combined: ITB routing over a multi-lane fabric
    with round-robin lane balancing.  ITB routes are deadlock-free on
    the collapsed channel graph, so any static per-launch lane
    assignment (round-robin included) preserves the guarantee.

``minimal`` (static row only)
    Unrestricted minimal routing on one lane.  Its CDG is cyclic on
    the study topology — the deadlock the other arms exist to avoid —
    so it gets no dynamic run; the report shows the verdict.

Every arm's deadlock-freedom column is computed honestly from the
lane-aware CDG of the exact all-pairs routes the mapper stamps.

A modelling caveat for the VC arms (see ``docs/TIMING_MODEL.md``):
lanes do not time-multiplex the physical wire, so each lane streams
at full link rate.  VC numbers are therefore an *optimistic upper
bound* — if ITB beats VC here, it beats real (wire-sharing) VCs by
more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.builder import build_network
from repro.core.timings import Timings
from repro.harness.throughput import build_load_network
from repro.harness.workloads import drive_traffic
from repro.topology.generators import random_irregular
from repro.topology.graph import Topology

__all__ = [
    "VcArm",
    "VcLoadPoint",
    "VcMechanismResult",
    "VcStudyResult",
    "measure_vc_point",
    "study_arms",
    "study_routes",
    "study_topology",
]


@dataclass(frozen=True)
class VcArm:
    """One mechanism configuration of the study."""

    mechanism: str
    routing: str
    lanes: int
    lane_policy: str
    dynamic: bool = True  # False = static CDG verdict only, no traffic


@dataclass
class VcLoadPoint:
    """Dynamic measurement of one (mechanism, offered-rate) sample."""

    offered: float
    accepted: float
    mean_latency_ns: float
    p99_latency_ns: float
    delivered_fraction: float


@dataclass
class VcMechanismResult:
    """One mechanism's static verdict plus its load sweep."""

    mechanism: str
    routing: str
    lanes: int
    lane_policy: str
    deadlock_free: bool
    lanes_required: int
    points: list[VcLoadPoint] = field(default_factory=list)

    @property
    def peak_accepted(self) -> float:
        """Highest accepted throughput over the sweep (0 if static-only)."""
        return max((p.accepted for p in self.points), default=0.0)

    @property
    def best_mean_latency_ns(self) -> float:
        """Lowest mean latency over the sweep (inf if static-only)."""
        return min((p.mean_latency_ns for p in self.points),
                   default=float("inf"))


@dataclass
class VcStudyResult:
    """The full ITB vs VC vs ITB+VC comparison."""

    n_switches: int
    hosts_per_switch: int
    packet_size: int
    topo_seed: int
    rows: list[VcMechanismResult] = field(default_factory=list)

    def row(self, mechanism: str) -> VcMechanismResult:
        """The result row of one mechanism (KeyError if absent)."""
        for r in self.rows:
            if r.mechanism == mechanism:
                return r
        raise KeyError(f"no mechanism {mechanism!r} in this study")

    @property
    def combined_wins_throughput(self) -> bool:
        """True when ITB+VC out-peaks both ITB alone and VC alone."""
        combined = self.row("itb+vc").peak_accepted
        return (combined > self.row("itb").peak_accepted
                and combined > self.row("vc").peak_accepted)


def study_topology(n_switches: int, topo_seed: int,
                   hosts_per_switch: int) -> Topology:
    """The study's random irregular COW (same generator as EXP-M1)."""
    return random_irregular(n_switches, seed=topo_seed,
                            hosts_per_switch=hosts_per_switch)


def _all_pairs_routes(topo: Topology, routing: str) -> list:
    """All-pairs routes as the mapper would stamp them."""
    from repro.routing import ItbRouter, MinimalRouter, UpDownRouter

    router = {"updown": UpDownRouter, "itb": ItbRouter,
              "minimal": MinimalRouter}[routing](topo)
    return list(router.itb_all_pairs().values())


def study_routes(topo: Topology) -> dict[str, list]:
    """All-pairs routes of each routing the arms use, built once: the
    ``vc`` arm shares the minimal set and ``itb+vc`` the ITB set."""
    return {routing: _all_pairs_routes(topo, routing)
            for routing in ("updown", "itb", "minimal")}


def vc_lanes_for(topo: Topology) -> int:
    """Lane count the escape policy needs on this topology's minimal
    routes — how the VC arm sizes its fabric."""
    from repro.routing.cdg import lanes_required

    return lanes_required(topo, _all_pairs_routes(topo, "minimal"))


def study_arms(topo: Topology, vc_lanes: Optional[int] = None,
               combined_lanes: int = 2) -> list[VcArm]:
    """The study's arms, with the VC fabric sized for this topology."""
    if vc_lanes is None:
        vc_lanes = vc_lanes_for(topo)
    return [
        VcArm("updown", "updown", 1, "fixed"),
        VcArm("itb", "itb", 1, "fixed"),
        VcArm("minimal", "minimal", 1, "fixed", dynamic=False),
        VcArm("vc", "minimal", vc_lanes, "escape"),
        VcArm("itb+vc", "itb", combined_lanes, "roundrobin"),
    ]


def measure_vc_point(
    routing: str,
    lanes: int,
    lane_policy: str,
    rate: float,
    n_switches: int,
    packet_size: int,
    duration_ns: float,
    warmup_ns: float,
    topo_seed: int,
    traffic_seed: int,
    hosts_per_switch: int,
    timings: Optional[Timings] = None,
    build: Callable = build_network,
) -> VcLoadPoint:
    """One independent (mechanism, offered-rate) sample on a fresh build."""
    topo = study_topology(n_switches, topo_seed, hosts_per_switch)
    net = build_load_network(topo, routing, timings=timings, build=build,
                             lanes=lanes, lane_policy=lane_policy)
    stats = drive_traffic(
        net,
        rate_bytes_per_ns_per_host=rate,
        packet_size=packet_size,
        duration_ns=duration_ns,
        warmup_ns=warmup_ns,
        seed=traffic_seed,
    )
    return VcLoadPoint(
        offered=rate,
        accepted=stats.accepted_bytes_per_ns_per_host,
        mean_latency_ns=stats.mean_latency_ns,
        p99_latency_ns=stats.p99_latency_ns,
        delivered_fraction=stats.delivered_fraction,
    )

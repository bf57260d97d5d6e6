"""EXP-SCALE: ITB vs up*/down* across 16 -> 512 switch fabrics.

The paper evaluates in-transit buffers on fabrics of at most a few
dozen switches; this study asks how the mechanism scales.  Three
generator families cover the design space:

``clos``
    Folded two-level Clos (leaf-spine): every leaf reaches every spine
    in one hop, so minimal paths already satisfy up*/down* through the
    root spine — the regular fabric where ITBs have nothing to fix.

``fattree``
    Three-level k-ary fat tree: same story one level deeper.  Core and
    aggregation switches carry no hosts, so non-tree shortcuts cannot
    be legalized by ejection, and the ITB router falls back to pure
    up*/down* on every pair.

``irregular``
    Seeded random irregular SAN cabling
    (:func:`~repro.topology.generators.random_irregular_scaled`) — the
    cluster-of-workstations wiring the paper targets, where up*/down*
    concentrates load at the root and ITB splits restore minimal
    paths.

Per (family, size, routing) the study reports *static* route-quality
metrics computed from a full batched all-pairs build (minimal-path
coverage, stretch, root-link involvement, worst channel load and the
analytic saturation throughput it implies, ITB-host pressure) plus
wall-clock build/route times, and — on sizes small enough to simulate
— one *dynamic* offered-load point through the event simulator.

The analytic saturation bound assumes uniform all-to-all traffic:
with H hosts each sending (H-1)/H of its load across the fabric, the
busiest directed channel carrying ``max_load`` of the H*(H-1) routes
saturates first, at per-host rate ``link_rate * (H - 1) /
max_load``.  Larger is better; up*/down*'s root concentration shows
up directly as a shrinking bound while ITB's spread keeps it flat.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.builder import build_network
from repro.core.timings import Timings
from repro.harness.throughput import build_load_network
from repro.harness.workloads import drive_traffic
from repro.routing.itb import ItbRouter
from repro.routing.minimal import switch_distances
from repro.routing.spanning_tree import build_orientation
from repro.routing.updown import UpDownRouter
from repro.topology.generators import (clos, fat_tree,
                                       random_irregular_scaled)
from repro.topology.graph import Topology

__all__ = [
    "ScaleDynamicPoint",
    "ScaleStudyResult",
    "ScaleStudyRow",
    "family_topology",
    "fat_tree_k_for",
    "measure_scale_point",
]

#: Generator families the study sweeps, in report order.
FAMILIES = ("clos", "fattree", "irregular")


def fat_tree_k_for(target: int) -> int:
    """Largest even ``k`` whose fat tree fits in ``target`` switches.

    A k-ary fat tree has ``5 * k**2 / 4`` switches; the study picks
    the biggest one not exceeding the size rung so families stay
    comparable.
    """
    k = 2
    while 5 * (k + 2) ** 2 // 4 <= target:
        k += 2
    return k


def family_topology(family: str, target: int, seed: int) -> Topology:
    """The study topology of one family at one size rung.

    ``target`` is the nominal switch count; regular families land on
    the nearest structurally-valid size at or below it (the row
    records the actual counts).
    """
    if family == "clos":
        m = max(2, target // 32)
        return clos(m=m, n=1, r=target - m)
    if family == "fattree":
        return fat_tree(k=fat_tree_k_for(target), hosts_per_edge=1)
    if family == "irregular":
        return random_irregular_scaled(target, seed=seed)
    raise ValueError(f"unknown scale-study family {family!r}")


@dataclass
class ScaleDynamicPoint:
    """One simulated offered-load sample (small fabrics only)."""

    offered: float
    accepted: float
    mean_latency_ns: float
    delivered_fraction: float


@dataclass
class ScaleStudyRow:
    """Static route metrics of one (family, size, routing) cell."""

    family: str
    target: int
    n_switches: int
    n_hosts: int
    n_links: int
    diameter: int
    root: int
    routing: str
    n_pairs: int
    minimal_coverage: float
    avg_stretch: float
    root_load_fraction: float
    max_channel_load: int
    saturation_bytes_per_ns_per_host: float
    itb_pairs_fraction: float
    total_itbs: int
    max_itbs_per_host: int
    build_s: float
    route_s: float
    dynamic: Optional[ScaleDynamicPoint] = None


@dataclass
class ScaleStudyResult:
    """The full scale sweep: rows per (family, size rung, routing)."""

    families: tuple[str, ...]
    targets: tuple[int, ...]
    routings: tuple[str, ...]
    topo_seed: int
    rows: list[ScaleStudyRow] = field(default_factory=list)

    def row(self, family: str, target: int, routing: str) -> ScaleStudyRow:
        """One cell of the sweep (KeyError if absent)."""
        for r in self.rows:
            if (r.family, r.target, r.routing) == (family, target, routing):
                return r
        raise KeyError(f"no row ({family}, {target}, {routing})")

    def series(self, family: str, routing: str) -> list[ScaleStudyRow]:
        """All rows of one (family, routing), in size order."""
        return [r for r in self.rows
                if r.family == family and r.routing == routing]

    def saturation_ratio(self, family: str, target: int) -> float:
        """ITB analytic saturation over up*/down*'s (1.0 = no gain)."""
        ud = self.row(family, target, "updown")
        itb = self.row(family, target, "itb")
        base = ud.saturation_bytes_per_ns_per_host
        if base <= 0:
            return float("inf")
        return itb.saturation_bytes_per_ns_per_host / base


def _make_router(topo: Topology, routing: str, orientation):
    if routing == "updown":
        return UpDownRouter(topo, orientation)
    if routing == "itb":
        return ItbRouter(topo, orientation)
    raise ValueError(f"scale study compares 'updown' and 'itb',"
                     f" not {routing!r}")


def measure_scale_point(
    family: str,
    target: int,
    routing: str,
    topo_seed: int,
    rate: float = 0.08,
    dynamic_max: int = 64,
    packet_size: int = 512,
    duration_ns: float = 120_000.0,
    warmup_ns: float = 24_000.0,
    traffic_seed: int = 7,
    timings: Optional[Timings] = None,
    build: Callable = build_network,
) -> ScaleStudyRow:
    """Build one fabric, run the batched all-pairs, score the routes.

    Every metric is derived from the exact route set a mapper would
    stamp (same routers, same deterministic tie-breaks).  Wall-clock
    fields are environment-dependent by nature and are never golden'd
    or gated — they exist so the scale table documents build cost.
    """
    t0 = time.perf_counter()
    topo = family_topology(family, target, topo_seed)
    orientation = build_orientation(topo)
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    router = _make_router(topo, routing, orientation)
    pairs = router.itb_all_pairs()
    route_s = time.perf_counter() - t0

    hosts = topo.hosts()
    root = orientation.root
    n_pairs = len(pairs)
    minimal = 0
    stretch_sum = 0.0
    through_root = 0
    itb_pairs = 0
    total_itbs = 0
    channel_load: Counter = Counter()
    itb_host_load: Counter = Counter()
    for (s, d), route in pairs.items():
        hops = len(route.switch_hops())
        min_hops = switch_distances(topo, topo.switch_of(s))[topo.switch_of(d)]
        if hops == min_hops:
            minimal += 1
        stretch_sum += (hops + 1) / (min_hops + 1)
        if any(root in seg.switch_path for seg in route.segments):
            through_root += 1
        if route.n_itbs:
            itb_pairs += 1
            total_itbs += route.n_itbs
            itb_host_load.update(route.itb_hosts)
        channel_load.update(route.switch_hops())

    max_load = max(channel_load.values(), default=0)
    link_rate = 1.0 / (timings or Timings()).link_byte_ns
    # Uniform all-to-all: the busiest channel carries max_load of the
    # H*(H-1) flows; it fills when each host offers link_rate*(H-1)/max_load.
    saturation = (link_rate * (len(hosts) - 1) / max_load
                  if max_load > 0 else 0.0)
    diameter = max(
        max(switch_distances(topo, s).values()) for s in topo.switches()
    )

    dynamic: Optional[ScaleDynamicPoint] = None
    if target <= dynamic_max:
        # The mapper stamps the routes scored above instead of routing
        # the fabric a second time.
        net = build_load_network(
            topo, routing, timings=timings,
            build=functools.partial(build, route_overrides=pairs))
        stats = drive_traffic(
            net, rate_bytes_per_ns_per_host=rate, packet_size=packet_size,
            duration_ns=duration_ns, warmup_ns=warmup_ns, seed=traffic_seed,
        )
        dynamic = ScaleDynamicPoint(
            offered=rate,
            accepted=stats.accepted_bytes_per_ns_per_host,
            mean_latency_ns=stats.mean_latency_ns,
            delivered_fraction=stats.delivered_fraction,
        )

    return ScaleStudyRow(
        family=family,
        target=target,
        n_switches=len(topo.switches()),
        n_hosts=len(hosts),
        n_links=len(topo.links),
        diameter=diameter,
        root=root,
        routing=routing,
        n_pairs=n_pairs,
        minimal_coverage=minimal / n_pairs if n_pairs else 1.0,
        avg_stretch=stretch_sum / n_pairs if n_pairs else 1.0,
        root_load_fraction=through_root / n_pairs if n_pairs else 0.0,
        max_channel_load=max_load,
        saturation_bytes_per_ns_per_host=saturation,
        itb_pairs_fraction=itb_pairs / n_pairs if n_pairs else 0.0,
        total_itbs=total_itbs,
        max_itbs_per_host=max(itb_host_load.values(), default=0),
        build_s=round(build_s, 3),
        route_s=round(route_s, 3),
        dynamic=dynamic,
    )

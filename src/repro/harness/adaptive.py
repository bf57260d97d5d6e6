"""EXP-A7: static vs adaptive ITB host selection under hotspot load.

The paper picks in-transit hosts once, at route-build time, with the
static lowest-id policy — and its own Figure 8 occupancy data shows
those hosts become hotspots under load.  This harness measures what
congestion-aware reselection buys: the same ITB routing, the same
fabric, but a :class:`~repro.gm.mapper.ItbReselector` periodically
re-choosing each violation switch's in-transit host with one of the
pluggable :mod:`~repro.routing.selectors` policies, fed by the live
buffer-occupancy view.

Two traffic matrices stress the placement:

* **hotspot** — a fixed fraction of every host's packets target the
  *busiest default in-transit host* (the worst case for the static
  placement: the hotspot's NIC serves its own flood plus every ITB
  re-injection through it),
* **shifting** — the hotspot cycles among the hosts of the busiest
  violation switch, i.e. among the very candidates selection chooses
  between; the static pick is hot for a phase of every cycle while an
  adaptive policy can dodge whichever candidate is currently loaded.

Run through the experiment pipeline as ``repro run adaptive-itb``;
results are summarized in ``docs/ADAPTIVE_ITB.md``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.builder import BuiltNetwork, build_network
from repro.core.timings import Timings
from repro.gm.mapper import ItbReselector
from repro.harness.throughput import build_load_network
from repro.harness.workloads import (DestChooser, TrafficStats, drive_traffic,
                                     hotspot_traffic, uniform_traffic)
from repro.routing.selectors import make_selector
from repro.topology.generators import random_irregular

__all__ = [
    "AdaptiveItbResult",
    "AdaptiveItbSample",
    "busiest_default_itb_host",
    "measure_adaptive_point",
    "shifting_hotspot_traffic",
]

#: Traffic matrices the experiment sweeps.
MATRICES = ("hotspot", "shifting")


def busiest_default_itb_host(net: BuiltNetwork) -> Optional[int]:
    """The in-transit host carrying the most stamped ITB routes.

    Counted over every NIC's route table (ties break to the lowest
    host id); ``None`` when no stamped route has an in-transit hop —
    the fabric then offers adaptive selection nothing to move, and the
    caller falls back to a plain hotspot.  This is the principled
    worst-case hotspot: the paper's Figure 8 resource, located from
    the actual mapper output rather than hand-picked.
    """
    counts: Counter = Counter()
    for src in sorted(net.nics):
        table = net.nics[src].route_table
        if table is None:
            continue
        for dst in table.destinations():
            for host in table.entries[dst].itb_hosts:
                counts[host] += 1
    if not counts:
        return None
    return min(counts, key=lambda h: (-counts[h], h))


def shifting_hotspot_traffic(
    hosts: Sequence[int],
    hotspots: Sequence[int],
    period_ns: float,
    now_fn: Callable[[], float],
    fraction: float = 0.3,
) -> DestChooser:
    """A hotspot that cycles through ``hotspots`` every ``period_ns``.

    The active hotspot at simulation time ``t`` is
    ``hotspots[int(t / period_ns) % len(hotspots)]``; a ``fraction``
    of every other host's packets target it, the rest are uniform.
    Deterministic given the injection times, so runs replay exactly.
    """
    if not hotspots:
        raise ValueError("need at least one hotspot host")
    if period_ns <= 0:
        raise ValueError("period must be positive")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    uniform = uniform_traffic(hosts)
    spots = list(hotspots)

    def choose(src: int, rng) -> int:
        hot = spots[int(now_fn() / period_ns) % len(spots)]
        if src != hot and rng.random() < fraction:
            return hot
        return uniform(src, rng)

    return choose


@dataclass
class AdaptiveItbSample:
    """One (policy, matrix, fabric size, rate) traffic run."""

    policy: str
    matrix: str
    n_switches: int
    rate: float
    hotspot: int
    stats: TrafficStats
    reselect_runs: int = 0
    reselect_forced: int = 0
    reselect_changed: int = 0
    decisions: int = 0
    engaged: int = 0

    @property
    def p99_latency_ns(self) -> float:
        """99th-percentile packet latency of the measurement window."""
        return self.stats.p99_latency_ns

    @property
    def mean_latency_ns(self) -> float:
        """Mean packet latency of the measurement window."""
        return self.stats.mean_latency_ns

    @property
    def accepted(self) -> float:
        """Accepted throughput (bytes/ns/host)."""
        return self.stats.accepted_bytes_per_ns_per_host


@dataclass
class AdaptiveItbResult:
    """Full static-vs-adaptive sweep over matrices and fabric sizes."""

    packet_size: int
    topo_seed: int
    hosts_per_switch: int
    rows: list[AdaptiveItbSample] = field(default_factory=list)

    def cell(self, matrix: str, n_switches: int) -> list[AdaptiveItbSample]:
        """All samples of one (matrix, fabric size), in run order."""
        return [r for r in self.rows
                if r.matrix == matrix and r.n_switches == n_switches]

    def p99(self, policy: str, matrix: str, n_switches: int) -> float:
        """Worst p99 latency of one policy in one cell (0 when absent)."""
        vals = [r.p99_latency_ns for r in self.cell(matrix, n_switches)
                if r.policy == policy]
        return max(vals) if vals else 0.0

    def best_adaptive(self, matrix: str,
                      n_switches: int) -> Optional[tuple[str, float]]:
        """The non-static policy with the lowest p99 in one cell."""
        best: Optional[tuple[str, float]] = None
        for row in self.cell(matrix, n_switches):
            if row.policy == "static":
                continue
            if best is None or row.p99_latency_ns < best[1]:
                best = (row.policy, row.p99_latency_ns)
        return best

    def adaptive_beats_static(self, matrix: str, n_switches: int) -> bool:
        """True when some adaptive policy improves on static p99."""
        static = self.p99("static", matrix, n_switches)
        best = self.best_adaptive(matrix, n_switches)
        return best is not None and static > 0 and best[1] < static


def measure_adaptive_point(
    policy: str,
    matrix: str,
    rate: float,
    n_switches: int,
    packet_size: int,
    duration_ns: float,
    warmup_ns: float,
    topo_seed: int,
    traffic_seed: int,
    hosts_per_switch: int,
    fraction: float = 0.35,
    interval_ns: float = 10_000.0,
    shift_period_ns: float = 40_000.0,
    view: str = "live",
    selector_seed: int = 2001,
    timings: Optional[Timings] = None,
    build: Callable = build_network,
) -> AdaptiveItbSample:
    """One independent (policy, matrix, rate) sample on a fresh build.

    The network is built with the shared load-experiment configuration
    (ITB firmware + routing, buffer pools, no host noise); a
    :class:`~repro.gm.mapper.ItbReselector` with the named policy then
    re-runs in-transit host selection every ``interval_ns``.  With
    ``view="live"`` the selector reads the obs registry's buffer
    occupancy gauges; ``view="zero"`` detaches the signal — the
    zero-load oracle arm, which must reproduce the static run byte for
    byte regardless of policy.
    """
    topo = random_irregular(
        n_switches, seed=topo_seed, hosts_per_switch=hosts_per_switch
    )
    net = build_load_network(topo, "itb", timings=timings, build=build)
    congestion = None
    if view == "live":
        from repro.obs import attach

        # One registry per network: an observed build already has one,
        # and it must keep the NICs' event sink (``nic.metrics``).
        registry = next(iter(net.nics.values())).metrics
        if registry is None:
            registry = attach.instrument_network(
                net, fabric_usage=False).registry
        congestion = attach.attach_congestion_view(net, registry)
    elif view != "zero":
        raise ValueError(f"unknown congestion view {view!r}")
    selector = make_selector(policy, view=congestion, seed=selector_seed)
    reselector = ItbReselector(net, selector, interval_ns=interval_ns)

    hosts = sorted(net.gm_hosts)
    hotspot = busiest_default_itb_host(net)
    if hotspot is None:
        hotspot = hosts[0]
    if matrix == "hotspot":
        pattern = hotspot_traffic(hosts, hotspot, fraction=fraction)
    elif matrix == "shifting":
        mates = net.topo.hosts_on(net.topo.switch_of(hotspot))
        pattern = shifting_hotspot_traffic(
            hosts,
            hotspots=mates if len(mates) > 1 else [hotspot],
            period_ns=shift_period_ns,
            now_fn=lambda: net.sim.now,
            fraction=fraction,
        )
    else:
        raise ValueError(f"unknown traffic matrix {matrix!r}")

    stats = drive_traffic(
        net,
        rate_bytes_per_ns_per_host=rate,
        packet_size=packet_size,
        duration_ns=duration_ns,
        warmup_ns=warmup_ns,
        pattern=pattern,
        seed=traffic_seed,
    )
    return AdaptiveItbSample(
        policy=policy,
        matrix=matrix,
        n_switches=n_switches,
        rate=rate,
        hotspot=hotspot,
        stats=stats,
        reselect_runs=reselector.runs,
        reselect_forced=reselector.forced,
        reselect_changed=reselector.pairs_changed,
        decisions=reselector.decisions,
        engaged=reselector.engaged,
    )

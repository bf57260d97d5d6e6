"""EXP-M1: network-level up*/down* vs ITB comparison.

The paper's Section 2 summarizes the motivation established by the
authors' simulation studies [2,3]: on medium irregular networks, the
ITB mechanism roughly doubles (sometimes triples) network throughput
relative to up*/down*, because it restores minimal paths, balances
traffic away from the spanning-tree root, and breaks wormhole
blocking chains by ejecting packets.

This experiment regenerates that comparison on the simulator: random
irregular COW topologies, open-loop uniform traffic, injection-rate
sweep; for each rate we record accepted throughput and average packet
latency under both routings (both on the ITB firmware — the routing,
not the firmware, is the variable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.builder import BuiltNetwork, build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.workloads import DestChooser, TrafficStats, drive_traffic
from repro.topology.generators import random_irregular
from repro.topology.graph import Topology

__all__ = ["ThroughputPoint", "ThroughputResult", "measure_load_point",
           "run_throughput", "build_load_network"]


@dataclass
class ThroughputPoint:
    """One (routing, offered-rate) sample."""

    routing: str
    offered_bytes_per_ns_per_host: float
    stats: TrafficStats

    @property
    def accepted(self) -> float:
        return self.stats.accepted_bytes_per_ns_per_host

    @property
    def mean_latency_ns(self) -> float:
        return self.stats.mean_latency_ns


@dataclass
class ThroughputResult:
    """Full sweep: points per routing plus summary ratios."""

    n_switches: int
    packet_size: int
    seed: int
    points: list[ThroughputPoint] = field(default_factory=list)

    def series(self, routing: str) -> list[ThroughputPoint]:
        """All points of one routing, in offered-load order."""
        return [p for p in self.points if p.routing == routing]

    def peak_accepted(self, routing: str) -> float:
        """Highest accepted throughput seen under one routing."""
        pts = self.series(routing)
        return max((p.accepted for p in pts), default=0.0)

    @property
    def throughput_ratio(self) -> float:
        """Peak ITB throughput over peak up*/down* throughput."""
        ud = self.peak_accepted("updown")
        return self.peak_accepted("itb") / ud if ud > 0 else float("inf")


def build_load_network(
    topo: Topology,
    routing: str,
    timings: Optional[Timings] = None,
    seed: int = 2001,
    pool_bytes: int = 1024 * 1024,
    build: Callable = build_network,
    lanes: int = 1,
    lane_policy: str = "fixed",
) -> BuiltNetwork:
    """A network configured for load experiments.

    In-transit hosts use the proposed circular buffer pool (per [2,3]
    the load studies assume ejected packets are always accepted, with
    flush-beyond-saturation), and host-noise is disabled so curves are
    smooth.  ``build`` lets the experiment pipeline inject its build
    path.  ``lanes`` / ``lane_policy`` configure virtual-channel
    lanes on the fabric (the ``vc-study`` arms); the single-lane
    default is the paper's stock switch.
    """
    t = (timings or Timings()).with_overrides(host_jitter_sigma_ns=0.0)
    config = NetworkConfig(
        firmware="itb",
        routing=routing,
        timings=t,
        reliable=False,
        recv_buffer_kind="pool",
        pool_bytes=pool_bytes,
        seed=seed,
        lanes=lanes,
        lane_policy=lane_policy,
    )
    return build(topo, config=config)


def measure_load_point(
    routing: str,
    rate: float,
    n_switches: int,
    packet_size: int,
    duration_ns: float,
    warmup_ns: float,
    topo_seed: int,
    traffic_seed: int,
    hosts_per_switch: int,
    pattern_factory=None,
    timings: Optional[Timings] = None,
    build: Callable = build_network,
) -> TrafficStats:
    """One independent (routing, offered-rate) sample on a fresh build."""
    topo = random_irregular(
        n_switches, seed=topo_seed, hosts_per_switch=hosts_per_switch
    )
    net = build_load_network(topo, routing, timings=timings, build=build)
    pattern: Optional[DestChooser] = None
    if pattern_factory is not None:
        pattern = pattern_factory(sorted(net.gm_hosts))
    return drive_traffic(
        net,
        rate_bytes_per_ns_per_host=rate,
        packet_size=packet_size,
        duration_ns=duration_ns,
        warmup_ns=warmup_ns,
        pattern=pattern,
        seed=traffic_seed,
    )


def run_throughput(
    n_switches: int = 16,
    packet_size: int = 512,
    rates: Sequence[float] = (0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10),
    duration_ns: float = 300_000.0,
    warmup_ns: float = 30_000.0,
    topo_seed: int = 11,
    traffic_seed: int = 7,
    hosts_per_switch: int = 1,
    routings: Sequence[str] = ("updown", "itb"),
    pattern_factory=None,
    timings: Optional[Timings] = None,
) -> ThroughputResult:
    """Sweep offered load under both routings on one random topology
    (through the unified experiment pipeline).

    ``rates`` are offered loads in bytes/ns/host (link capacity is
    0.16 bytes/ns).  A fresh network is built per point so runs are
    independent.  ``pattern_factory(hosts)`` may supply a non-uniform
    destination pattern (callables ride in ``spec.params``, so such a
    spec is not persistable and fans out only if picklable).
    """
    from repro.exp import ExperimentSpec, run_experiment

    params = {}
    if pattern_factory is not None:
        params["pattern_factory"] = pattern_factory
    return run_experiment(ExperimentSpec(
        experiment="throughput",
        n_switches=n_switches,
        packet_size=packet_size,
        rates=tuple(rates),
        duration_ns=duration_ns,
        warmup_ns=warmup_ns,
        topo_seed=topo_seed,
        traffic_seed=traffic_seed,
        hosts_per_switch=hosts_per_switch,
        routings=tuple(routings),
        timings=timings,
        params=params,
    ))

"""Synthetic traffic generators for the network-level experiments.

These implement the workloads the authors' simulation studies [2,3]
use to motivate the ITB mechanism: open-loop packet injection at a
controlled per-host rate with uniform, hotspot, or fixed-permutation
destination patterns.

Injection is open-loop **at the firmware boundary** (descriptors
handed straight to the NIC): offered load is then exactly the
configured rate, independent of host-software costs, which is what a
latency-vs-offered-load curve requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.builder import BuiltNetwork
from repro.mcp.firmware import TransitPacket
from repro.sim.engine import Simulator, Timeout

__all__ = [
    "TrafficStats",
    "hotspot_traffic",
    "permutation_traffic",
    "uniform_traffic",
    "drive_traffic",
]

DestChooser = Callable[[int, np.random.Generator], int]


@dataclass
class TrafficStats:
    """Aggregate results of one traffic run."""

    offered_packets: int = 0
    delivered_packets: int = 0
    dropped_packets: int = 0
    offered_bytes: int = 0
    delivered_bytes: int = 0
    #: Network latency (injection -> last byte at destination), ns.
    latencies_ns: list = field(default_factory=list)
    duration_ns: float = 0.0
    n_hosts: int = 0

    @property
    def delivered_fraction(self) -> float:
        return self.delivered_packets / max(1, self.offered_packets)

    @property
    def accepted_bytes_per_ns_per_host(self) -> float:
        """Accepted throughput per host (bytes/ns)."""
        if self.duration_ns <= 0 or self.n_hosts == 0:
            return 0.0
        return self.delivered_bytes / self.duration_ns / self.n_hosts

    @property
    def mean_latency_ns(self) -> float:
        return float(np.mean(self.latencies_ns)) if self.latencies_ns else 0.0

    @property
    def p99_latency_ns(self) -> float:
        if not self.latencies_ns:
            return 0.0
        return float(np.percentile(self.latencies_ns, 99))


def uniform_traffic(hosts: Sequence[int]) -> DestChooser:
    """Each packet targets a uniformly random other host."""
    hosts = list(hosts)

    def choose(src: int, rng: np.random.Generator) -> int:
        while True:
            dst = hosts[int(rng.integers(len(hosts)))]
            if dst != src:
                return dst

    return choose


def hotspot_traffic(
    hosts: Sequence[int], hotspot: int, fraction: float = 0.3
) -> DestChooser:
    """A ``fraction`` of packets target one hotspot host; rest uniform."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    uniform = uniform_traffic(hosts)

    def choose(src: int, rng: np.random.Generator) -> int:
        if src != hotspot and rng.random() < fraction:
            return hotspot
        return uniform(src, rng)

    return choose


def permutation_traffic(hosts: Sequence[int], seed: int = 0) -> DestChooser:
    """A fixed random permutation: every host sends to one partner."""
    hosts = list(hosts)
    rng = np.random.default_rng(seed)
    # Random derangement by rejection (hosts lists are small).
    while True:
        perm = list(rng.permutation(hosts))
        if all(a != b for a, b in zip(hosts, perm)):
            break
    mapping = dict(zip(hosts, perm))

    def choose(src: int, _rng: np.random.Generator) -> int:
        return mapping[src]

    return choose


def drive_traffic(
    net: BuiltNetwork,
    rate_bytes_per_ns_per_host: float,
    packet_size: int,
    duration_ns: float,
    pattern: Optional[DestChooser] = None,
    seed: int = 7,
    warmup_ns: float = 0.0,
    max_events: int = 50_000_000,
) -> TrafficStats:
    """Open-loop injection on every host, steady-state measurement.

    Injection runs continuously for ``warmup_ns + duration_ns``.
    Accounting uses the steady-state window ``[warmup, warmup +
    duration)``: *offered* counts packets whose injection attempt
    falls in the window, *accepted* counts packets whose last byte
    arrives in the window — the standard open-loop saturation
    methodology (a network past saturation delivers fewer bytes per
    unit time than are offered; queued backlog must not be credited).

    Latency samples are taken from packets delivered in the window,
    measured from the ``host_send`` call (so source queueing delay —
    the symptom of saturation — is included).
    """
    sim: Simulator = net.sim
    hosts = sorted(net.gm_hosts)
    if pattern is None:
        pattern = uniform_traffic(hosts)
    stats = TrafficStats(n_hosts=len(hosts), duration_ns=duration_ns)
    if rate_bytes_per_ns_per_host <= 0:
        raise ValueError("rate must be positive")
    mean_gap = packet_size / rate_bytes_per_ns_per_host

    t_start = sim.now
    t_meas = t_start + warmup_ns
    t_end = t_meas + duration_ns

    tracer = net.fabric.tracer

    def on_final(tp: TransitPacket) -> None:
        ctx = tp.trace
        if ctx is not None and ctx.root is not None:
            # Firmware-level workload: no GM host to close the message
            # root, so final disposition closes it here.
            ctx.root.close(
                sim.now,
                "ok" if not tp.dropped else (tp.drop_reason or "dropped"))
        if tp.dropped:
            stats.dropped_packets += 1
            return
        done = tp.t_complete_dst
        if done is None or not (t_meas <= done < t_end):
            return
        stats.delivered_packets += 1
        stats.delivered_bytes += tp.payload_len
        if tp.t_api_send is not None:
            stats.latencies_ns.append(done - tp.t_api_send)

    def injector(host: int):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(host,))
        )
        nic = net.nics[host]
        while True:
            yield Timeout(float(rng.exponential(mean_gap)))
            if sim.now >= t_end:
                return
            dst = pattern(host, rng)
            if t_meas <= sim.now < t_end:
                stats.offered_packets += 1
                stats.offered_bytes += packet_size
            trace_ctx = None
            if tracer is not None and tracer.sample():
                trace_ctx = tracer.open_message(
                    sim.now, f"traffic[{host}]",
                    src=host, dst=dst, length=packet_size)
            nic.firmware.host_send(
                dst=dst, payload_len=packet_size,
                gm={"kind": "data", "last": True},
                on_delivered=on_final,
                trace=trace_ctx,
            )

    for host in hosts:
        sim.process(injector(host), name=f"inject[{host}]")
    sim.run(until=t_end, max_events=max_events)
    return stats

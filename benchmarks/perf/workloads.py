"""The perf benchmark's five workloads.

Each workload is one function ``(rig, seed, scale) -> Outcome`` that
drives existing public entry points of ``repro`` and checks their
outputs.  The :class:`Rig` is the benchmark's hook into a repeat: it is
passed as the ``build=`` argument of every network build, so it sees
every network a workload makes.  The :class:`RunClock` times the
simulator's run loop from outside.

Host seconds spent inside ``Simulator.run`` / ``run_until_event`` are
the run phase (``wall_s``); everything else in a repeat — topology
generation, network construction, the mapper, telemetry and selector
set-up, fault-plan installation — is set-up (``setup_s``).

``--seed`` sets the traffic, host-noise, selector and fault seeds; the
fabric of every workload is fixed, so a seed changes what flows over a
fabric, never the fabric.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.builder import build_network
from repro.harness.adaptive import measure_adaptive_point
from repro.harness.faultcamp import measure_fault_point
from repro.harness.fig7 import DEFAULT_SIZES, Fig7Result, measure_fig7_point
from repro.harness.fig8 import Fig8Result, measure_fig8_point
from repro.harness.paper_claims import claim
from repro.harness.throughput import build_load_network
from repro.harness.workloads import TrafficStats, drive_traffic
from repro.routing.cdg import is_deadlock_free
from repro.sim.engine import Simulator
from repro.topology import generators

from layers import LayerProfiler, SelfTimer

__all__ = ["Outcome", "Rig", "RunClock", "SAMPLE_EVERY", "WORKLOADS",
           "net_counters"]


class RunClock:
    """Times host seconds spent inside the simulator's run loop.

    Wraps ``Simulator.run`` and ``Simulator.run_until_event`` for as long
    as it is installed; one extra Python call per run-loop entry.
    """

    def __init__(self) -> None:
        self.ns = 0
        self._originals: dict[str, Callable] = {}

    def install(self) -> "RunClock":
        for name in ("run", "run_until_event"):
            original = Simulator.__dict__[name]
            self._originals[name] = original
            setattr(Simulator, name, self._timed(original))
        return self

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            setattr(Simulator, name, original)
        self._originals.clear()

    def _timed(self, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ns += time.perf_counter_ns() - t0

        timed.__name__ = fn.__name__
        return timed


class Rig:
    """One repeat's view of the networks a workload builds.

    With a :class:`SelfTimer` (traced repeats) every build is charged to
    the ``core`` bucket and gets a :class:`LayerProfiler`.
    """

    def __init__(self, timer: Optional[SelfTimer] = None) -> None:
        self.timer = timer
        self.nets: list = []
        self.profilers: list[LayerProfiler] = []

    def build(self, *args, **kwargs):
        if self.timer is None:
            net = build_network(*args, **kwargs)
        else:
            net = self.timer.call("core", build_network, *args, **kwargs)
            self.profilers.append(LayerProfiler(self.timer).install(net.sim))
        self.nets.append(net)
        return net

    @property
    def events(self) -> int:
        """Calendar dispatches profiled so far (traced repeats only)."""
        return sum(p.events_total for p in self.profilers)


@dataclass
class Outcome:
    """What one repeat of a workload produced and whether it checked out.

    ``attempted`` / ``failed`` count operations in the workload's own
    unit; ``outcomes`` maps a simulated result to ``(value, unit)``;
    ``digest_parts`` is every simulated output that must repeat exactly;
    ``final_check`` is run once per invocation, outside timed repeats.
    """

    unit: str
    attempted: int
    failed: int
    errors: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)
    digest_parts: tuple = ()
    final_check: Optional[Callable[[], list]] = None


def _latency_outcomes(stats: TrafficStats) -> dict:
    lat = stats.latencies_ns
    p50 = statistics.median(lat) / 1e3 if lat else 0.0
    return {
        "sim_p50_latency_us": (p50, "us"),
        "sim_p99_latency_us": (stats.p99_latency_ns / 1e3, "us"),
        "sim_latency_samples": (len(lat), "count"),
        "sim_accepted_Bpns": (stats.accepted_bytes_per_ns_per_host, "B/ns"),
        "sim_delivered_frac": (stats.delivered_fraction, "ratio"),
    }


def _traffic_digest(stats: TrafficStats) -> tuple:
    return (stats.offered_packets, stats.delivered_packets,
            stats.dropped_packets, stats.offered_bytes,
            stats.delivered_bytes, tuple(stats.latencies_ns))


def _packet_ops(nets) -> tuple[int, int]:
    """Packets sent and packets failed (flushed, lost, dropped unknown)."""
    sent = failed = 0
    for net in nets:
        for nic in net.nics.values():
            s = nic.stats
            sent += s.packets_sent
            failed += (s.packets_flushed + s.packets_lost_in_flight
                       + s.packets_dropped_unknown)
    return sent, failed


# -- paper-ladder ------------------------------------------------------------

def paper_ladder(rig: Rig, seed: int, scale: float) -> Outcome:
    """Figs. 7 and 8: gm_allsize ping-pong on the Figure 6 testbed.

    Closed loop, one message in flight, no contention: the paper's own
    protocol.  ``gm`` and ``mcp`` do the work; worms fly express.
    """
    iterations = max(2, round(100 * scale))
    f7 = Fig7Result(iterations=iterations)
    f8 = Fig8Result(iterations=iterations)
    for size in DEFAULT_SIZES:
        f7.rows.append(measure_fig7_point(size, iterations, None, seed,
                                          build=rig.build))
        f8.rows.append(measure_fig8_point(size, iterations, None, seed,
                                          build=rig.build))
    # Every Fig. 7/8 claim but f8.prior_estimate_ns, which is the earlier
    # studies' assumption rather than a measurement.
    reproduced = {
        "f7.mean_overhead_ns": f7.mean_overhead_ns,
        "f7.max_overhead_ns": f7.max_overhead_ns,
        "f7.relative_short_pct": f7.relative_short_pct,
        "f7.relative_long_pct": f7.relative_long_pct,
        "f8.overhead_ns": f8.mean_overhead_ns,
        "f8.relative_short_pct": f8.relative_short_pct,
        "f8.relative_long_pct": f8.relative_long_pct,
    }
    errors = [claim(k).describe(v) for k, v in reproduced.items()
              if not claim(k).holds(v)]
    err_pct = statistics.fmean(
        100.0 * abs(v - claim(k).value) / claim(k).value
        for k, v in reproduced.items())
    outcomes = {"paper_err_pct": (err_pct, "%"),
                "f7_mean_overhead_ns": (f7.mean_overhead_ns, "ns"),
                "f8_overhead_ns": (f8.mean_overhead_ns, "ns")}
    rows = tuple((r.size, r.original_ns, r.modified_ns) for r in f7.rows)
    rows += tuple((r.size, r.ud_ns, r.ud_itb_ns) for r in f8.rows)
    return Outcome(unit="round trips",
                   attempted=4 * len(DEFAULT_SIZES) * iterations, failed=0,
                   errors=errors, outcomes=outcomes, digest_parts=rows)


# -- uniform-16sw ------------------------------------------------------------

def uniform_16sw(rig: Rig, seed: int, scale: float) -> Outcome:
    """Open-loop Poisson uniform traffic at ~80% of ITB saturation.

    Contended wormhole load on a 16-switch irregular fabric: ``sim`` and
    ``network`` dominate through claims and partial or demoted express
    flights.  No in-transit host selection runs.
    """
    topo = generators.random_irregular(16, seed=5, hosts_per_switch=2)
    net = build_load_network(topo, "itb", seed=seed, build=rig.build)
    # Below ~1.5 ms the packets still in flight when the window closes
    # alone exceed the 2% the delivery check allows.
    stats = drive_traffic(net, rate_bytes_per_ns_per_host=0.03,
                          packet_size=512, duration_ns=max(6e6 * scale, 1.5e6),
                          warmup_ns=1.2e6 * scale, seed=seed)
    sent, failed = _packet_ops(rig.nets)
    errors = []
    if stats.delivered_packets < 0.98 * stats.offered_packets:
        errors.append(f"delivered {stats.delivered_packets} of"
                      f" {stats.offered_packets} window packets (< 98%)")
    return Outcome(unit="packets", attempted=sent, failed=failed,
                   errors=errors, outcomes=_latency_outcomes(stats),
                   digest_parts=_traffic_digest(stats))


# -- hotspot-adaptive-32sw ---------------------------------------------------

def hotspot_adaptive_32sw(rig: Rig, seed: int, scale: float) -> Outcome:
    """Hotspot on the busiest in-transit host with least-loaded reselection.

    Stresses runtime routing (``ItbReselector.reselect`` every 10 us
    against the live registry view) and the ITB buffers; the contrast
    to ``uniform-16sw``, which never selects.
    """
    sample = measure_adaptive_point(
        policy="least-loaded", matrix="hotspot", rate=0.02, n_switches=32,
        packet_size=512, duration_ns=400e3 * scale, warmup_ns=80e3 * scale,
        topo_seed=11, traffic_seed=seed, hosts_per_switch=2, fraction=0.1,
        interval_ns=10_000.0, selector_seed=seed, build=rig.build)
    sent, failed = _packet_ops(rig.nets)
    errors = []
    if sample.engaged <= 0:
        errors.append("least-loaded selector never engaged")
    digest = _traffic_digest(sample.stats) + (
        sample.hotspot, sample.reselect_runs, sample.reselect_changed,
        sample.decisions, sample.engaged)
    return Outcome(unit="packets", attempted=sent, failed=failed,
                   errors=errors, outcomes=_latency_outcomes(sample.stats),
                   digest_parts=digest)


# -- gm-faults ---------------------------------------------------------------

def gm_faults(rig: Rig, seed: int, scale: float) -> Outcome:
    """GM's reliable path under a fault campaign on the Figure 6 testbed.

    Go-back-N retransmits, NACKs, a host-down and a link-down kill and
    the remap after each — the same ``gm`` layer as ``paper-ladder``,
    through the code the ladder never reaches.  The fault rate stays
    below the point where a seed can tip the campaign into a timeout
    storm: at 2% loss and 1% corruption the work per repeat varies 8x
    from seed to seed, at 1% in all by a few percent.
    """
    row = measure_fault_point(
        loss=0.005, corrupt=0.005, schedule="campaign",
        n_messages=max(10, round(1000 * scale)), message_size=1024,
        seed=seed, gap_ns=20_000.0, horizon_ns=40e6, build=rig.build)
    errors = []
    if not row.accounted:
        errors.append(f"{row.lost_messages} of {row.messages} messages"
                      " neither completed nor failed")
    if row.delivered != row.completed:
        errors.append(f"delivered {row.delivered} != completed"
                      f" {row.completed}")
    outcomes = {"gm_retransmissions": (row.retransmissions, "count"),
                "gm_failed_messages": (row.failed, "count")}
    return Outcome(unit="GM messages", attempted=row.messages,
                   failed=row.failed + row.lost_messages,
                   errors=errors, outcomes=outcomes,
                   digest_parts=(repr(row),))


# -- build-128sw -------------------------------------------------------------

def _route_digest(net) -> str:
    h = hashlib.sha256()
    for src in sorted(net.nics):
        entries = net.nics[src].route_table.entries
        for dst in sorted(entries):
            h.update(repr((src, dst, [seg.ports for seg in
                                      entries[dst].segments])).encode())
    return h.hexdigest()


def build_128sw(rig: Rig, seed: int, scale: float) -> Outcome:
    """Cold all-pairs route construction on a 128-switch, 256-host fabric.

    Set-up dominated: ``topology``, ``routing`` and ``core`` do the work.
    A short light-load burst on the ITB tables is the run phase, and
    doubles as the check that the tables deliver.
    """
    n_switches = max(8, round(128 * scale))
    topo = generators.random_irregular(n_switches, seed=11,
                                       hosts_per_switch=2)
    hosts = topo.hosts()
    pairs = len(hosts) * (len(hosts) - 1)
    nets = {routing: build_load_network(topo, routing, seed=seed,
                                        build=rig.build)
            for routing in ("updown", "itb")}
    # Long enough (~1.5 s of host time) that one stall of a shared host
    # does not decide the run phase's median.
    stats = drive_traffic(nets["itb"], rate_bytes_per_ns_per_host=0.01,
                          packet_size=512, duration_ns=0.9e6,
                          warmup_ns=0.2e6, seed=seed)
    errors = []
    unrouted = 0
    for routing, net in nets.items():
        routed = sum(len(nic.route_table) for nic in net.nics.values())
        if routed != pairs:
            errors.append(f"{routing}: {routed} of {pairs} pairs routed")
        unrouted += pairs - routed
    _, failed_packets = _packet_ops(rig.nets)
    if failed_packets or stats.delivered_packets == 0:
        errors.append(f"burst: {failed_packets} packets failed,"
                      f" {stats.delivered_packets} delivered")
    itb = nets["itb"]

    def deadlock_check() -> list:
        routes = [e for nic in itb.nics.values()
                  for e in nic.route_table.entries.values()]
        return ([] if is_deadlock_free(itb.topo, routes)
                else ["ITB routes are not deadlock-free"])

    outcomes = _latency_outcomes(stats)
    outcomes["routed_pairs"] = (2 * pairs - unrouted, "count")
    return Outcome(unit="host pairs", attempted=2 * pairs, failed=unrouted,
                   errors=errors, outcomes=outcomes,
                   digest_parts=(_route_digest(nets["updown"]),
                                 _route_digest(itb),
                                 _traffic_digest(stats)),
                   final_check=deadlock_check)


def net_counters(nets) -> dict:
    """Simulated per-layer counters summed over every network built."""
    c: dict = {}

    def add(key: str, value) -> None:
        c[key] = c.get(key, 0) + value

    for net in nets:
        express = net.fabric.express_stats
        add("express_hits", express.hits)
        add("express_fallbacks", express.fallbacks)
        add("stepped_hops", express.stepped_hops)
        for nic in net.nics.values():
            for key, value in vars(nic.stats).items():
                add(key, value)
        for gm in net.gm_hosts.values():
            add("retransmissions", gm.retransmissions)
            add("timeouts", gm.timeouts)
            add("nacks", gm.nacks_sent)
        add("nic_time_ns", net.sim.now * len(net.nics))
        reselector = net.fabric.meta.get("itb_reselector")
        if reselector is not None:
            add("reselect_runs", reselector.runs)
            add("routes_moved", reselector.pairs_changed)
            add("selector_decisions", reselector.decisions)
            add("selector_engaged", reselector.engaged)
        plan = net.fabric.meta.get("fault_plan")
        if plan is not None:
            add("remaps", plan.remap_events)
    return c


#: Workload name -> the function that runs one repeat of it.
WORKLOADS: dict[str, Callable[[Rig, int, float], Outcome]] = {
    "paper-ladder": paper_ladder,
    "uniform-16sw": uniform_16sw,
    "hotspot-adaptive-32sw": hotspot_adaptive_32sw,
    "gm-faults": gm_faults,
    "build-128sw": build_128sw,
}

#: Every Kth message is span-traced in the traced run: the fault campaign
#: has few messages, so it samples more of them.
SAMPLE_EVERY = {name: 16 for name in WORKLOADS}
SAMPLE_EVERY["gm-faults"] = 8

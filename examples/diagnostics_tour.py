#!/usr/bin/env python3
"""Diagnostics tour: the observability toolkit in one run.

A reproduction is only trustworthy if you can see inside it.  This
example drives every diagnostic surface the library offers:

1. topology rendering (text + DOT) with the up*/down* orientation,
2. a packet's span waterfall through an in-transit host,
3. its one-way latency split into critical-path categories,
4. live fabric-load metering (Jain fairness, root concentration),
5. the runtime deadlock detector catching a real circular wait on a
   ring fabric under forbidden minimal routes.

Run:  python examples/diagnostics_tour.py
"""

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.paths import fig6_paths
from repro.harness.report import format_table
from repro.harness.throughput import build_load_network
from repro.harness.workloads import drive_traffic
from repro.network.deadlock import detect_deadlock
from repro.network.instrumentation import FabricUsage
from repro.obs.critical_path import CATEGORIES, breakdown_trace
from repro.obs.tracing import SpanTracer, span_tree, waterfall_lines
from repro.routing.routes import SourceRoute
from repro.routing.spanning_tree import build_orientation
from repro.topology.export import to_text
from repro.topology.generators import fig6_testbed, random_irregular
from repro.topology.graph import PortKind, Topology


def tour_topology() -> None:
    print("=" * 70)
    print("1. topology rendering (fig6 testbed with orientation)")
    print("=" * 70)
    topo, _roles = fig6_testbed()
    print(to_text(topo, build_orientation(topo)))


def tour_spans_and_critical_path() -> None:
    print()
    print("=" * 70)
    print("2+3. span waterfall + critical path through one ITB")
    print("=" * 70)
    cfg = NetworkConfig(
        firmware="itb", routing="updown",
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    net = build_network("fig6", config=cfg)
    tracer = SpanTracer()
    net.fabric.tracer = tracer
    paths = fig6_paths(net.topo, net.roles)
    src, dst = net.roles["host1"], net.roles["host2"]
    # One 512 B packet at the firmware boundary: its message root
    # closes when the packet is delivered.
    ctx = tracer.open_message(net.sim.now, "tour", src=src, dst=dst,
                              length=512)
    done = net.sim.event("delivered")
    net.nics[src].firmware.host_send(
        dst=dst, payload_len=512, gm={"last": True}, route=paths.itb5,
        on_delivered=lambda tp: done.succeed(), trace=ctx)
    net.sim.run_until_event(done)
    ctx.root.close(net.sim.now)
    for line in waterfall_lines(span_tree(tracer.spans)):
        print(line)
    print()
    b = breakdown_trace(tracer.spans)
    print(format_table(
        ["category", "ns", "%"],
        [(cat, b.categories[cat], 100.0 * b.categories[cat] / b.total_ns)
         for cat in CATEGORIES],
        title="one-way critical path, 512 B via 1 ITB"
              f" (total {b.total_ns / 1000:.2f} us)",
        float_fmt="{:.1f}",
    ))


def tour_balance() -> None:
    print()
    print("=" * 70)
    print("4. live fabric-load metering (12-switch cluster)")
    print("=" * 70)
    rows = []
    for routing in ("updown", "itb"):
        topo = random_irregular(12, seed=7, hosts_per_switch=2)
        net = build_load_network(topo, routing)
        usage = FabricUsage(net)
        drive_traffic(net, rate_bytes_per_ns_per_host=0.05,
                      packet_size=512, duration_ns=120_000,
                      warmup_ns=20_000)
        rows.append((routing, usage.jain_fairness(),
                     usage.max_utilization(), usage.root_concentration()))
    print(format_table(
        ["routing", "Jain fairness", "max channel util", "root share"],
        rows, float_fmt="{:.3f}",
    ))


def tour_deadlock() -> None:
    print()
    print("=" * 70)
    print("5. runtime deadlock detection (4-switch ring, forbidden routes)")
    print("=" * 70)
    topo = Topology(name="ring-4")
    sw = [topo.add_switch(n_ports=8) for _ in range(4)]
    for i in range(4):
        a, b = sw[i], sw[(i + 1) % 4]
        topo.connect(a, topo.free_port(a), b, topo.free_port(b),
                     kind=PortKind.SAN)
    hosts = [topo.attach_host(s, topo.free_port(s)) for s in sw]
    cfg = NetworkConfig(
        firmware="itb", routing="updown",
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    net = build_network(topo, config=cfg, roles={})
    for i in range(4):
        path = [sw[(i + k) % 4] for k in range(3)]
        ports = [topo.port_toward(a, b) for a, b in zip(path, path[1:])]
        dst = hosts[(i + 2) % 4]
        ports.append(topo.port_toward(path[-1], dst))
        route = SourceRoute(src=hosts[i], dst=dst, ports=tuple(ports),
                            switch_path=tuple(path))
        net.nics[hosts[i]].firmware.host_send(
            dst=dst, payload_len=4096, gm={"last": True}, route=route)
    net.sim.run(until=60_000.0)
    report = detect_deadlock(net)
    print(report.describe())
    print("(up*/down* or ITB routes under the same pressure never"
          " deadlock — see tests/test_deadlock_detection.py)")


def main() -> None:
    tour_topology()
    tour_spans_and_critical_path()
    tour_balance()
    tour_deadlock()


if __name__ == "__main__":
    main()

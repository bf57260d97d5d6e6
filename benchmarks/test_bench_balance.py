"""Benchmark: EXP-M1c — measured traffic balance.

The paper's introduction: spanning-tree routings "tend to saturate the
zone near the root switch, making low use of channels out of this
zone".  This bench runs identical uniform traffic under both routings
with every fabric channel metered, and reports the observed load
distribution: Jain's fairness index, the busiest channel's
utilization, and the share of fabric busy-time adjacent to the root.
"""

from __future__ import annotations

from repro.harness.report import format_table
from repro.harness.throughput import build_load_network
from repro.harness.workloads import drive_traffic
from repro.network.instrumentation import FabricUsage
from repro.topology.generators import random_irregular


def test_bench_balance(benchmark, scale):
    n_switches = max(scale["throughput_switches"])
    rate = scale["throughput_rates"][len(scale["throughput_rates"]) // 2]

    def run_both():
        out = {}
        for routing in ("updown", "itb"):
            topo = random_irregular(n_switches, seed=7, hosts_per_switch=2)
            net = build_load_network(topo, routing)
            usage = FabricUsage(net)
            drive_traffic(net, rate_bytes_per_ns_per_host=rate,
                          packet_size=512,
                          duration_ns=scale["throughput_duration"],
                          warmup_ns=scale["throughput_duration"] / 5)
            out[routing] = usage
        return out

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    rows = []
    for routing, usage in results.items():
        rows.append((
            routing,
            usage.jain_fairness(),
            usage.max_utilization(),
            usage.root_concentration(),
        ))
    print()
    print(format_table(
        ["routing", "Jain fairness", "max channel util",
         "root-adjacent share"],
        rows,
        title=("EXP-M1c — measured fabric-load balance,"
               f" {n_switches} switches, uniform traffic"),
        float_fmt="{:.3f}",
    ))

    ud, itb = results["updown"], results["itb"]
    # Shape: ITB routing spreads load at least as evenly and pulls
    # busy-time away from the root neighbourhood.
    assert itb.jain_fairness() >= ud.jain_fairness() * 0.98
    assert itb.root_concentration() <= ud.root_concentration() + 0.02

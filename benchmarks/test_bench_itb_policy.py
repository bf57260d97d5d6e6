"""Benchmark: EXP-A6 — in-transit host selection policy.

With several hosts per switch, the mapper must pick which one serves
each in-transit duty.  ``first_host`` funnels every ejection through
one NIC per switch; ``round_robin`` spreads the work — the simplest
of the load-aware placements the paper's follow-up work motivates.
Reports transit-duty spread and accepted throughput under load.
"""

from __future__ import annotations

import itertools

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.report import format_table
from repro.harness.workloads import drive_traffic
from repro.routing.itb import ItbRouter, first_host_policy, round_robin_policy
from repro.routing.spanning_tree import build_orientation
from repro.routing.tables import build_route_tables
from repro.topology.generators import random_irregular


def _build(policy_factory, n_switches, seed):
    topo = random_irregular(n_switches, seed=seed, hosts_per_switch=3)
    cfg = NetworkConfig(
        firmware="itb", routing="updown",
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
        recv_buffer_kind="pool", pool_bytes=1024 * 1024, reliable=False,
    )
    net = build_network(topo, config=cfg)
    router = ItbRouter(topo, build_orientation(topo),
                       host_policy=policy_factory())
    for host, table in build_route_tables(sorted(net.gm_hosts),
                                          router).items():
        net.nics[host].route_table = table
    return net, router


def test_bench_itb_policy(scale):
    n_switches = min(scale["throughput_switches"][-1], 16)
    rate = scale["throughput_rates"][len(scale["throughput_rates"]) // 2]

    def run_both():
        out = {}
        for name, factory in (("first-host", lambda: first_host_policy),
                              ("round-robin", round_robin_policy)):
            net, router = _build(factory, n_switches, seed=9)
            hosts = sorted(net.gm_hosts)
            transit_hosts = set()
            n_itb_routes = 0
            for s, d in itertools.permutations(hosts, 2):
                route = net.nics[s].route_table.lookup(d)
                transit_hosts.update(route.itb_hosts)
                n_itb_routes += 1 if route.n_itbs else 0
            stats = drive_traffic(
                net, rate_bytes_per_ns_per_host=rate, packet_size=512,
                duration_ns=scale["throughput_duration"],
                warmup_ns=scale["throughput_duration"] / 5)
            out[name] = {
                "distinct_transit_hosts": len(transit_hosts),
                "itb_routes": n_itb_routes,
                "accepted": stats.accepted_bytes_per_ns_per_host,
                "mean_latency_us": stats.mean_latency_ns / 1000.0,
            }
        return out

    results = run_both()

    print()
    print(format_table(
        ["policy", "distinct transit hosts", "routes w/ ITBs",
         "accepted (B/ns/host)", "mean latency (us)"],
        [(name, r["distinct_transit_hosts"], r["itb_routes"],
          r["accepted"], r["mean_latency_us"])
         for name, r in results.items()],
        title=("EXP-A6 — in-transit host selection,"
               f" {n_switches} switches x 3 hosts"),
        float_fmt="{:.4f}",
    ))

    first, rr = results["first-host"], results["round-robin"]
    # Round-robin never narrows the transit-duty spread and does not
    # hurt throughput.
    assert rr["distinct_transit_hosts"] >= first["distinct_transit_hosts"]
    assert rr["accepted"] >= first["accepted"] * 0.97

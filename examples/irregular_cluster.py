#!/usr/bin/env python3
"""Network-level payoff: ITB routing on an irregular cluster of
workstations — the scenario the paper's introduction motivates.

Builds a random irregular COW topology (the physical-placement-driven
wiring typical of real clusters), then:

1. analyses the routes the two mappers compute — path lengths,
   spanning-tree-root congestion, and how many pairs need ITBs,
2. verifies deadlock freedom via the channel dependency graph,
3. drives uniform open-loop traffic at increasing offered load and
   compares accepted throughput and latency under up*/down* vs ITB
   routing.

Run:  python examples/irregular_cluster.py [--switches N] [--full]
"""

import argparse
import itertools

from repro.exp import Runner, get_experiment
from repro.harness.report import format_table
from repro.routing.cdg import is_deadlock_free
from repro.routing.itb import ItbRouter
from repro.routing.minimal import MinimalRouter
from repro.routing.spanning_tree import build_orientation
from repro.routing.updown import UpDownRouter
from repro.topology.generators import random_irregular


def analyse_routes(n_switches: int, seed: int) -> None:
    topo = random_irregular(n_switches, seed=seed, hosts_per_switch=2)
    orientation = build_orientation(topo)
    ud = UpDownRouter(topo, orientation)
    itb = ItbRouter(topo, orientation)
    mn = MinimalRouter(topo)

    hosts = topo.hosts()
    pairs = list(itertools.permutations(hosts, 2))
    ud_routes = {p: ud.route(*p) for p in pairs}
    itb_routes = {p: itb.itb_route(*p) for p in pairs}

    avg = lambda xs: sum(xs) / len(xs)  # noqa: E731
    ud_hops = avg([len(r.switch_hops()) for r in ud_routes.values()])
    itb_hops = avg([len(r.switch_hops()) for r in itb_routes.values()])
    min_hops = avg([len(mn.route(*p).switch_hops()) for p in pairs])
    n_with_itbs = sum(1 for r in itb_routes.values() if r.n_itbs > 0)
    root = orientation.root
    root_ud = sum(1 for r in ud_routes.values() if root in r.switch_path)
    root_itb = sum(
        1 for r in itb_routes.values()
        if any(root in seg.switch_path for seg in r.segments)
    )

    print(format_table(
        ["quantity", "value"],
        [
            ("switches / hosts", f"{n_switches} / {len(hosts)}"),
            ("avg inter-switch hops, minimal", f"{min_hops:.2f}"),
            ("avg inter-switch hops, up*/down*", f"{ud_hops:.2f}"),
            ("avg inter-switch hops, ITB", f"{itb_hops:.2f}"),
            ("pairs routed through >= 1 ITB",
             f"{n_with_itbs}/{len(pairs)}"),
            ("routes crossing the root, up*/down*",
             f"{root_ud}/{len(pairs)}"),
            ("routes crossing the root, ITB", f"{root_itb}/{len(pairs)}"),
            ("up*/down* deadlock-free",
             str(is_deadlock_free(topo, ud_routes.values()))),
            ("ITB routing deadlock-free",
             str(is_deadlock_free(topo, itb_routes.values()))),
        ],
        title=f"route analysis, {n_switches}-switch irregular cluster",
    ))


def load_sweep(n_switches: int, full: bool, seed: int) -> None:
    rates = (0.01, 0.02, 0.04, 0.08, 0.12) if full else (0.02, 0.06, 0.12)
    duration = 300_000.0 if full else 150_000.0
    spec = get_experiment("throughput").default_spec().replace(
        n_switches=n_switches, packet_size=512, rates=rates,
        duration_ns=duration, warmup_ns=duration / 5,
        hosts_per_switch=2, topo_seed=seed,
    )
    result = Runner().run(spec).result
    rows = []
    for routing in ("updown", "itb"):
        for p in result.series(routing):
            rows.append((routing, p.offered_bytes_per_ns_per_host,
                         p.accepted, p.mean_latency_ns / 1000.0))
    print()
    print(format_table(
        ["routing", "offered (B/ns/host)", "accepted (B/ns/host)",
         "mean latency (us)"],
        rows,
        title=f"open-loop uniform traffic, {n_switches} switches",
        float_fmt="{:.4f}",
    ))
    print("\npeak accepted throughput: up*/down*"
          f" {result.peak_accepted('updown'):.4f},"
          f" ITB {result.peak_accepted('itb'):.4f}"
          f"  (ratio {result.throughput_ratio:.2f}x)")
    print("the ratio grows with network size — the paper's [2,3] studies"
          " report ~2x at 64 switches, which REPRO_FULL-scale runs of")
    print("benchmarks/test_bench_throughput.py reproduce.")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--switches", type=int, default=16)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()

    analyse_routes(args.switches, args.seed)
    load_sweep(args.switches, args.full, args.seed)


if __name__ == "__main__":
    main()

"""Benchmark: the network-level up*/down* vs ITB comparison (EXP-M1).

Regenerates the motivation claim of the paper's Section 2 (established
by the authors' simulation studies [2,3]): ITB routing sustains higher
accepted throughput than up*/down* on irregular networks, with the gap
growing with network size — roughly 2x at 64 switches.

Prints, per network size, the accepted-throughput-vs-offered-load
series under both routings and the peak ratio.
"""

from __future__ import annotations

from repro.exp import Runner, get_experiment
from repro.harness.report import format_table, paper_vs_measured


def test_bench_throughput(scale):
    def sweep_all():
        spec = get_experiment("throughput").default_spec().replace(
            packet_size=512,
            rates=tuple(scale["throughput_rates"]),
            duration_ns=scale["throughput_duration"],
            warmup_ns=scale["throughput_duration"] / 5,
            hosts_per_switch=2,
            topo_seed=5,
        )
        return {n_sw: Runner().run(spec.replace(n_switches=n_sw)).result
                for n_sw in scale["throughput_switches"]}

    results = sweep_all()

    for n_sw, result in results.items():
        rows = []
        for routing in ("updown", "itb"):
            for p in result.series(routing):
                rows.append((
                    routing,
                    p.offered_bytes_per_ns_per_host,
                    p.accepted,
                    p.mean_latency_ns / 1000.0,
                    p.stats.delivered_packets,
                ))
        print()
        print(format_table(
            ["routing", "offered (B/ns/host)", "accepted (B/ns/host)",
             "mean latency (us)", "delivered"],
            rows,
            title=(f"EXP-M1 — {n_sw} switches: accepted throughput vs"
                   " offered load"),
            float_fmt="{:.4f}",
        ))

    ratios = {n: r.throughput_ratio for n, r in results.items()}
    sizes = sorted(ratios)
    print()
    print(paper_vs_measured(
        [
            (f"peak throughput ITB/UD at {n} switches",
             "grows with size, ~2x at 64 sw [2,3]",
             f"{ratios[n]:.2f}x",
             ratios[n] >= 0.95)
            for n in sizes
        ] + [
            ("ratio grows with network size",
             "yes",
             " -> ".join(f"{ratios[n]:.2f}" for n in sizes),
             ratios[sizes[-1]] >= ratios[sizes[0]] - 0.05),
        ],
        title="EXP-M1 paper-vs-measured",
    ))

    # Shape: ITB never loses, and the advantage does not shrink with size.
    for n, r in ratios.items():
        assert r >= 0.95, f"ITB lost at {n} switches: {r:.2f}"
    assert ratios[sizes[-1]] >= ratios[sizes[0]] - 0.05
    # At the largest benched size the gap must be clearly visible.
    assert ratios[sizes[-1]] >= 1.15

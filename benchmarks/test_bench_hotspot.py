"""Benchmark: EXP-M1b — hotspot traffic, where traffic balance matters
most.

The up*/down* weakness the paper's introduction names is *unbalanced
traffic*: routes concentrate near the spanning-tree root.  A hotspot
destination amplifies that concentration; ITB routing's minimal paths
spread the remaining (non-hotspot) traffic away from the saturated
region.  This bench compares accepted throughput under uniform vs
hotspot patterns for both routings.
"""

from __future__ import annotations

from repro.exp import Runner, get_experiment
from repro.harness.report import format_table
from repro.harness.workloads import hotspot_traffic


def test_bench_hotspot(scale):
    n_switches = max(scale["throughput_switches"])
    rates = scale["throughput_rates"][-2:]

    def run_both():
        spec = get_experiment("throughput").default_spec().replace(
            n_switches=n_switches, packet_size=512, rates=tuple(rates),
            duration_ns=scale["throughput_duration"],
            warmup_ns=scale["throughput_duration"] / 5,
            hosts_per_switch=2, topo_seed=5,
        )
        hotspot = spec.replace(params={
            "pattern_factory": lambda hosts: hotspot_traffic(
                hosts, hotspot=hosts[0], fraction=0.25)})
        return {"uniform": Runner().run(spec).result,
                "hotspot": Runner().run(hotspot).result}

    results = run_both()

    rows = []
    for label, res in results.items():
        rows.append((
            label,
            res.peak_accepted("updown"),
            res.peak_accepted("itb"),
            res.throughput_ratio,
        ))
    print()
    print(format_table(
        ["pattern", "peak UD (B/ns/host)", "peak ITB (B/ns/host)",
         "ratio ITB/UD"],
        rows,
        title=f"EXP-M1b — traffic-pattern sensitivity, {n_switches} switches",
        float_fmt="{:.4f}",
    ))

    # Shape: ITB keeps its advantage (or stays at parity) under the
    # hotspot too; the hotspot itself lowers everyone's absolute peak.
    for label, res in results.items():
        assert res.throughput_ratio >= 0.9, (
            f"{label}: ITB lost ({res.throughput_ratio:.2f})")
    assert results["hotspot"].peak_accepted("updown") <= \
        results["uniform"].peak_accepted("updown")

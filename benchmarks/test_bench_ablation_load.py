"""Benchmark: EXP-A1 — marginal per-ITB overhead under load.

The paper's Section 5 argues the measured 1.3 us per-ITB delay "only
will be important when, after detecting an in-transit packet, the
required output port is free" — when the port is busy, the packet
would have waited anyway, so the marginal cost under load shrinks.
This bench measures the per-ITB overhead with and without background
traffic keeping the re-injection output channel busy.
"""

from __future__ import annotations

from repro.exp import Runner, get_experiment
from repro.harness.report import format_table


def test_bench_ablation_load(scale):
    spec = get_experiment("ablation-load").default_spec().replace(
        iterations=max(10, scale["iterations"] // 2))
    result = Runner().run(spec).result

    print()
    print(format_table(
        ["condition", "per-ITB overhead (ns)"],
        [
            ("unloaded network (paper Figure 8)",
             result.overhead_unloaded_ns),
            ("output port kept busy", result.overhead_loaded_ns),
            ("marginal fraction",
             result.marginal_fraction),
        ],
        title="EXP-A1 — per-ITB overhead with a busy re-injection port",
        float_fmt="{:.2f}",
    ))

    assert result.overhead_unloaded_ns > 1_000.0
    # The paper's expectation: results "for medium and high network
    # loads will not significantly change" — the marginal ITB cost
    # under load must not exceed the unloaded cost by more than noise.
    assert result.overhead_loaded_ns < result.overhead_unloaded_ns * 1.25

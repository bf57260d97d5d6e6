"""Benchmark: EXP-A3 — ITB detection/programming cost sweep.

Sweeps the firmware cycle budget from the [2,3] simulation assumption
(275 ns detect + 200 ns DMA program, ~0.5 us total) through the
implementation this paper measured (~1.3 us) to a hypothetical
hardware-assisted detector, and reports the end-to-end per-ITB
overhead each regime yields.
"""

from __future__ import annotations

from repro.harness.ablations import run_ablation_timing
from repro.harness.report import format_table


def test_bench_ablation_timing(scale):
    rows = run_ablation_timing(size=64, iterations=scale["iterations"])

    print()
    print(format_table(
        ["regime", "early-recv (cycles)", "program DMA (cycles)",
         "firmware cost (ns)", "per-ITB overhead (ns)"],
        [(r.label, r.early_recv_cycles, r.program_dma_cycles,
          r.firmware_cost_ns, r.overhead_ns) for r in rows],
        title="EXP-A3 — per-ITB overhead vs firmware cost assumption",
        float_fmt="{:.0f}",
    ))

    # The [2,3] assumption reproduces their ~0.5 us figure; the
    # implementation regime reproduces this paper's ~1.3 us.
    assumed, paper, hw = rows
    assert 400 <= assumed.overhead_ns <= 650
    assert 1_100 <= paper.overhead_ns <= 1_600
    assert hw.overhead_ns < assumed.overhead_ns

"""Benchmark: EXP-A3 — ITB detection/programming cost sweep.

Sweeps the firmware cycle budget from the [2,3] simulation assumption
(275 ns detect + 200 ns DMA program, ~0.5 us total) through the
implementation this paper measured (~1.3 us) to a hypothetical
hardware-assisted detector, and reports the end-to-end per-ITB
overhead each regime yields.
"""

from __future__ import annotations

from repro.exp import Runner, get_experiment
from repro.harness.paper_claims import claim
from repro.harness.report import format_table


def test_bench_ablation_timing(scale):
    spec = get_experiment("ablation-timing").default_spec().replace(
        iterations=scale["iterations"])
    rows = Runner().run(spec).result.rows

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
    assert claim("f8.prior_estimate_ns").holds(assumed.overhead_ns)
    assert claim("f8.overhead_ns").holds(paper.overhead_ns)
    assert hw.overhead_ns < assumed.overhead_ns

"""Benchmark: regenerate paper Figure 7 (EXP-F7).

Prints the half-round-trip latency of the original vs modified MCP
per message size, the per-packet overhead, and the paper-vs-measured
summary, then asserts the shape.
"""

from __future__ import annotations

from repro.harness.fig7 import run_fig7
from repro.harness.report import format_table, paper_vs_measured


def test_bench_fig7(scale):
    result = run_fig7(sizes=scale["sizes"], iterations=scale["iterations"])

    rows = [
        (r.size, r.original_ns / 1000.0, r.modified_ns / 1000.0,
         r.overhead_ns, r.relative_pct)
        for r in result.rows
    ]
    print()
    print(format_table(
        ["size (B)", "orig MCP (us)", "ITB MCP (us)",
         "overhead (ns)", "relative (%)"],
        rows,
        title="Figure 7 — message latency overhead of the new GM/MCP code",
    ))
    print()
    print(paper_vs_measured(
        [
            ("avg per-packet overhead",
             "~125 ns",
             f"{result.mean_overhead_ns:.0f} ns",
             100 <= result.mean_overhead_ns <= 160),
            ("max per-packet overhead",
             "<= 300 ns",
             f"{result.max_overhead_ns:.0f} ns",
             result.max_overhead_ns <= 300),
            ("relative overhead, short msgs",
             "~1 %",
             f"{result.relative_short_pct:.2f} %",
             0.5 <= result.relative_short_pct <= 2.5),
            ("relative overhead, long msgs",
             "~0.4 %",
             f"{result.relative_long_pct:.2f} %",
             result.relative_long_pct <= 0.7),
        ],
        title="EXP-F7 paper-vs-measured",
    ))

    assert 100 <= result.mean_overhead_ns <= 160
    assert result.max_overhead_ns <= 300
    rels = [r.relative_pct for r in result.rows]
    assert rels == sorted(rels, reverse=True)

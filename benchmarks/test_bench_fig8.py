"""Benchmark: regenerate paper Figure 8 (EXP-F8).

Prints the half-RTT of the 5-crossing up*/down* path vs the 5-crossing
in-transit path per message size, the per-ITB overhead (difference x 2,
per the paper's protocol), and the paper-vs-measured summary.
"""

from __future__ import annotations

from repro.harness.fig8 import run_fig8
from repro.harness.report import format_table, paper_vs_measured


def test_bench_fig8(scale):
    result = run_fig8(sizes=scale["sizes"], iterations=scale["iterations"])

    rows = [
        (r.size, r.ud_ns / 1000.0, r.ud_itb_ns / 1000.0,
         r.overhead_ns / 1000.0, r.relative_pct)
        for r in result.rows
    ]
    print()
    print(format_table(
        ["size (B)", "UD (us)", "UD-ITB (us)",
         "per-ITB overhead (us)", "relative (%)"],
        rows,
        title=("Figure 8 — message latency overhead of the in-transit"
               " buffer mechanism"),
        float_fmt="{:.2f}",
    ))
    print()
    print(paper_vs_measured(
        [
            ("per-ITB overhead",
             "~1.3 us",
             f"{result.mean_overhead_ns / 1000:.2f} us",
             1_100 <= result.mean_overhead_ns <= 1_600),
            ("vs [2,3] assumption",
             "> 0.5 us",
             f"{result.mean_overhead_ns / 1000:.2f} us",
             result.mean_overhead_ns > 500),
            ("relative overhead, short msgs",
             "~10 %",
             f"{result.relative_short_pct:.1f} %",
             5 <= result.relative_short_pct <= 16),
            ("relative overhead, long msgs",
             "~3 %",
             f"{result.relative_long_pct:.1f} %",
             result.relative_long_pct <= 4.5),
        ],
        title="EXP-F8 paper-vs-measured",
    ))

    assert 1_100 <= result.mean_overhead_ns <= 1_600
    rels = [r.relative_pct for r in result.rows]
    assert rels == sorted(rels, reverse=True)
    for r in result.rows:
        assert r.ud_itb_ns > r.ud_ns

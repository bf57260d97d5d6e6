"""Benchmark: regenerate paper Figure 7 (EXP-F7).

Prints the half-round-trip latency of the original vs modified MCP
per message size, the per-packet overhead, and the paper-vs-measured
summary, then asserts the shape.
"""

from __future__ import annotations

from repro.exp import Runner, get_experiment
from repro.harness.paper_claims import claim
from repro.harness.report import format_table, paper_vs_measured


def test_bench_fig7(scale):
    spec = get_experiment("fig7").default_spec().replace(
        sizes=scale["sizes"], iterations=scale["iterations"])
    result = Runner().run(spec).result
    mean_ok = claim("f7.mean_overhead_ns").holds(result.mean_overhead_ns)
    max_ok = claim("f7.max_overhead_ns").holds(result.max_overhead_ns)

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
             mean_ok),
            ("max per-packet overhead",
             "<= 300 ns",
             f"{result.max_overhead_ns:.0f} ns",
             max_ok),
            ("relative overhead, short msgs",
             "~1 %",
             f"{result.relative_short_pct:.2f} %",
             claim("f7.relative_short_pct").holds(result.relative_short_pct)),
            ("relative overhead, long msgs",
             "~0.4 %",
             f"{result.relative_long_pct:.2f} %",
             claim("f7.relative_long_pct").holds(result.relative_long_pct)),
        ],
        title="EXP-F7 paper-vs-measured",
    ))

    assert mean_ok
    assert max_ok
    rels = [r.relative_pct for r in result.rows]
    assert rels == sorted(rels, reverse=True)

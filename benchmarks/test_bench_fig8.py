"""Benchmark: regenerate paper Figure 8 (EXP-F8).

Prints the half-RTT of the 5-crossing up*/down* path vs the 5-crossing
in-transit path per message size, the per-ITB overhead (difference x 2,
per the paper's protocol), and the paper-vs-measured summary.
"""

from __future__ import annotations

from repro.exp import Runner, get_experiment
from repro.harness.paper_claims import claim
from repro.harness.report import format_table, paper_vs_measured


def test_bench_fig8(scale):
    spec = get_experiment("fig8").default_spec().replace(
        sizes=scale["sizes"], iterations=scale["iterations"])
    result = Runner().run(spec).result
    overhead_ok = claim("f8.overhead_ns").holds(result.mean_overhead_ns)
    prior_ns = claim("f8.prior_estimate_ns").value

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
             overhead_ok),
            ("vs [2,3] assumption",
             f"> {prior_ns / 1000:g} us",
             f"{result.mean_overhead_ns / 1000:.2f} us",
             result.mean_overhead_ns > prior_ns),
            ("relative overhead, short msgs",
             "~10 %",
             f"{result.relative_short_pct:.1f} %",
             claim("f8.relative_short_pct").holds(result.relative_short_pct)),
            ("relative overhead, long msgs",
             "~3 %",
             f"{result.relative_long_pct:.1f} %",
             claim("f8.relative_long_pct").holds(result.relative_long_pct)),
        ],
        title="EXP-F8 paper-vs-measured",
    ))

    assert overhead_ok
    rels = [r.relative_pct for r in result.rows]
    assert rels == sorted(rels, reverse=True)
    for r in result.rows:
        assert r.ud_itb_ns > r.ud_ns

"""Benchmark: EXP-A5 — root-placement sensitivity of up*/down* vs ITB.

Prints average fabric hops under the mapper's optimal root and under
an anti-optimal (max-eccentricity) root.  The robust finding: the
root *choice* is second-order, but up*/down* carries a first-order
stretch over minimal under *every* root — and ITB routing removes it
entirely, making route quality root-independent.
"""

from __future__ import annotations

from repro.exp import Runner, get_experiment
from repro.harness.report import format_table


def test_bench_root_study():
    spec = get_experiment("root-study").default_spec()
    rows = Runner().run(spec).result.rows

    print()
    print(format_table(
        ["root placement", "avg UD hops", "avg ITB hops", "avg minimal",
         "UD stretch", "pairs w/ ITBs"],
        [(r.root_label, r.avg_updown_hops, r.avg_itb_hops,
          r.avg_minimal_hops, r.updown_stretch,
          f"{r.pairs_with_itbs}/{r.n_pairs}") for r in rows],
        title="EXP-A5 — spanning-tree root sensitivity (16 switches,"
              " sparse fabric)",
        float_fmt="{:.3f}",
    ))

    optimal = next(r for r in rows if r.root_label == "optimal")
    anti = next(r for r in rows if r.root_label == "anti-optimal")
    # ITB routing is root-independent (hosts on every switch): exactly
    # minimal hops under both placements.
    assert optimal.avg_itb_hops == anti.avg_itb_hops
    assert optimal.avg_itb_hops == optimal.avg_minimal_hops
    # up*/down* carries a measurable stretch under both placements;
    # ITB removes it.
    for row in rows:
        assert row.updown_stretch > 1.02
        assert row.itb_saving > 0

"""Benchmark: regenerate the paper Figure 1 analysis (EXP-F1).

Prints the route-length comparison (minimal vs up*/down* vs ITB) and
the deadlock verdicts on the Figure-1-style irregular network.
"""

from __future__ import annotations

from repro.harness.fig1 import run_fig1
from repro.harness.report import format_table, paper_vs_measured


def test_bench_fig1():
    result = run_fig1()

    print()
    print(format_table(
        ["quantity", "value"],
        [
            ("showcase pair minimal length (switches)",
             result.showcase_minimal_len),
            ("showcase pair up*/down* length", result.showcase_updown_len),
            ("showcase pair ITB length (incl. re-cross)",
             result.showcase_itb_len),
            ("showcase ITB inter-switch hops",
             result.showcase_itb_inter_switch_hops),
            ("showcase up*/down* inter-switch hops",
             result.showcase_updown_inter_switch_hops),
            ("all-pairs avg minimal", result.avg_minimal),
            ("all-pairs avg up*/down*", result.avg_updown),
            ("all-pairs avg ITB", result.avg_itb),
            ("pairs where ITB uses fewer fabric links",
             f"{result.pairs_itb_shorter}/{result.n_pairs}"),
            ("routes crossing root, up*/down*",
             f"{result.root_cross_updown:.2f}"),
            ("routes crossing root, ITB", f"{result.root_cross_itb:.2f}"),
        ],
        title="Figure 1 — minimal routes enabled by in-transit buffers",
    ))
    print()
    print(paper_vs_measured(
        [
            ("minimal 4->6->1 forbidden by up*/down*",
             "yes (down->up at 6)",
             "yes" if result.showcase_updown_len >
             result.showcase_minimal_len else "no",
             result.showcase_updown_len > result.showcase_minimal_len),
            ("one ITB legalizes the minimal route",
             "1 ITB at switch 6",
             f"{len(result.showcase_itb_hosts)} ITB",
             len(result.showcase_itb_hosts) == 1),
            ("up*/down* deadlock-free", "yes",
             str(result.updown_deadlock_free), result.updown_deadlock_free),
            ("ITB routing deadlock-free", "yes",
             str(result.itb_deadlock_free), result.itb_deadlock_free),
            ("raw minimal routing deadlock-free", "no",
             str(result.minimal_deadlock_free),
             not result.minimal_deadlock_free),
            ("ITB relieves root congestion", "yes",
             f"{result.root_cross_updown:.2f} -> {result.root_cross_itb:.2f}",
             result.root_cross_itb < result.root_cross_updown),
        ],
        title="EXP-F1 paper-vs-measured",
    ))

    assert result.showcase_minimal_len == 3
    assert result.showcase_updown_len == 4
    assert result.updown_deadlock_free and result.itb_deadlock_free
    assert not result.minimal_deadlock_free

"""Tests for the Figure 1 analysis harness and the reporting helpers."""

from __future__ import annotations

import pytest

from repro.harness.fig1 import run_fig1
from repro.harness.report import format_table, paper_vs_measured


@pytest.fixture(scope="module")
def fig1():
    return run_fig1()


class TestFig1Analysis:
    def test_showcase_lengths(self, fig1):
        """The Figure 1 situation: minimal (3) < up*/down* (4); the
        ITB route re-crosses the split switch so its traversal count
        matches up*/down* but it uses fewer inter-switch cables."""
        assert fig1.showcase_minimal_len == 3
        assert fig1.showcase_updown_len == 4
        assert fig1.showcase_itb_inter_switch_hops < \
            fig1.showcase_updown_inter_switch_hops
        assert len(fig1.showcase_itb_hosts) == 1

    def test_deadlock_verdicts(self, fig1):
        assert fig1.updown_deadlock_free
        assert fig1.itb_deadlock_free
        assert not fig1.minimal_deadlock_free

    def test_itb_relieves_the_root(self, fig1):
        """Fewer routes cross the spanning-tree root under ITB routing
        — the traffic-balance argument of the paper's introduction."""
        assert fig1.root_cross_itb < fig1.root_cross_updown

    def test_itb_never_longer_on_fabric_links(self, fig1):
        assert fig1.avg_itb <= fig1.avg_updown + 1e-9
        assert fig1.pairs_itb_shorter > 0


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(
            ["size", "latency"],
            [(1, 10.5), (4096, 999.25)],
            title="demo",
        )
        lines = out.splitlines()
        assert lines[0] == "demo"
        assert "size" in lines[1] and "latency" in lines[1]
        assert len(lines) == 5
        # All rows equal width.
        assert len({len(l) for l in lines[1:]}) == 1

    def test_paper_vs_measured(self):
        out = paper_vs_measured(
            [("overhead", "125 ns", "121 ns", True),
             ("ratio", "2x", "1.3x", False)],
        )
        assert "yes" in out and "NO" in out

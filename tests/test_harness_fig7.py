"""EXP-F7 harness tests: the Figure 7 reproduction must hold its shape."""

from __future__ import annotations

import pytest

from repro.core.timings import Timings
from repro.exp import Runner, get_experiment
from repro.harness.fig7 import Fig7Result, Fig7Row
from repro.harness.paper_claims import claim

SIZES = (16, 256, 2048)


@pytest.fixture(scope="module")
def fig7() -> Fig7Result:
    # Noise-free, few iterations: the deltas are exact in simulation.
    t = Timings().with_overrides(host_jitter_sigma_ns=0.0)
    spec = get_experiment("fig7").default_spec().replace(
        sizes=SIZES, iterations=10, timings=t)
    return Runner().run(spec).result


class TestFig7Shape:
    def test_overhead_near_125ns(self, fig7):
        """Paper: average ~125 ns per packet."""
        assert 100.0 <= fig7.mean_overhead_ns <= 150.0

    def test_overhead_never_exceeds_300ns(self, fig7):
        """Paper: difference never exceeds ~300 ns."""
        assert claim("f7.max_overhead_ns").holds(fig7.max_overhead_ns)

    def test_overhead_always_positive(self, fig7):
        """The modified firmware is never faster."""
        assert fig7.min_overhead_ns > 0.0

    def test_overhead_equals_check_cost_exactly_when_noise_free(self, fig7):
        """Noise-free simulation: the delta IS the added instructions."""
        expected = Timings().itb_check_ns
        for row in fig7.rows:
            assert row.overhead_ns == pytest.approx(expected, abs=1.0)

    def test_relative_overhead_decreases_with_size(self, fig7):
        rels = [r.relative_pct for r in fig7.rows]
        assert rels == sorted(rels, reverse=True)

    def test_relative_range_matches_paper(self, fig7):
        """Paper: ~1 % for short packets, falling under ~0.5 %."""
        assert claim("f7.relative_short_pct").holds(fig7.relative_short_pct)
        assert claim("f7.relative_long_pct").holds(fig7.relative_long_pct)

    def test_latency_grows_with_size(self, fig7):
        originals = [r.original_ns for r in fig7.rows]
        assert originals == sorted(originals)


class TestFig7WithNoise:
    def test_mean_still_near_check_cost(self):
        """With host noise on (the default), per-size averages stay
        near the instruction cost — the paper's 125 ns average with
        scatter bounded well under 300 ns."""
        spec = get_experiment("fig7").default_spec().replace(
            sizes=(64,), iterations=60, seed=42)
        res = Runner().run(spec).result
        assert 60.0 <= res.mean_overhead_ns <= 250.0


class TestRowMath:
    def test_row_properties(self):
        row = Fig7Row(size=8, original_ns=10_000.0, modified_ns=10_125.0)
        assert row.overhead_ns == 125.0
        assert row.relative_pct == pytest.approx(1.25)

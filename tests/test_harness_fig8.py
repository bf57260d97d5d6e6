"""EXP-F8 harness tests: the Figure 8 reproduction must hold its shape."""

from __future__ import annotations

import pytest

from repro.core.timings import Timings
from repro.exp import Runner, get_experiment
from repro.harness.fig8 import Fig8Result, Fig8Row
from repro.harness.paper_claims import claim

SIZES = (16, 256, 4096)


@pytest.fixture(scope="module")
def fig8() -> Fig8Result:
    t = Timings().with_overrides(host_jitter_sigma_ns=0.0)
    spec = get_experiment("fig8").default_spec().replace(
        sizes=SIZES, iterations=10, timings=t)
    return Runner().run(spec).result


class TestFig8Shape:
    def test_overhead_near_1300ns(self, fig8):
        """Paper: ~1.3 us per ITB."""
        assert claim("f8.overhead_ns").holds(fig8.mean_overhead_ns)

    def test_overhead_size_independent(self, fig8):
        """The per-ITB cost is a header-time cost: it must not grow
        with message length (cut-through re-injection)."""
        overheads = [r.overhead_ns for r in fig8.rows]
        assert max(overheads) - min(overheads) < 100.0

    def test_overhead_exceeds_prior_estimate(self, fig8):
        """Paper: the measured 1.3 us is far above the ~0.5 us assumed
        in the earlier simulation studies [2,3]."""
        assert fig8.mean_overhead_ns > 500.0

    def test_firmware_cost_is_the_dominant_component(self, fig8):
        """Detection + DMA programming accounts for most of the
        overhead; wire effects (extra NIC cable, longer header) are
        second order."""
        fw = Timings().itb_forward_ns
        assert fig8.mean_overhead_ns >= fw
        assert fig8.mean_overhead_ns - fw < 300.0

    def test_itb_path_always_slower(self, fig8):
        for row in fig8.rows:
            assert row.ud_itb_ns > row.ud_ns

    def test_relative_overhead_decreases_with_size(self, fig8):
        rels = [r.relative_pct for r in fig8.rows]
        assert rels == sorted(rels, reverse=True)

    def test_relative_range_matches_paper(self, fig8):
        """Paper: ~10 % short, ~3 % long."""
        assert claim("f8.relative_short_pct").holds(fig8.relative_short_pct)
        assert fig8.relative_long_pct <= 4.0


class TestRowMath:
    def test_overhead_doubling_protocol(self):
        """Half-RTT difference x 2, per the paper's measurement note."""
        row = Fig8Row(size=8, ud_ns=10_000.0, ud_itb_ns=10_650.0)
        assert row.overhead_ns == pytest.approx(1_300.0)
        assert row.one_way_itb_ns == pytest.approx(11_300.0)
        assert row.relative_pct == pytest.approx(100 * 1300.0 / 11300.0)

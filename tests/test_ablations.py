"""Tests for the ablation experiments (EXP-A1/A2/A3)."""

from __future__ import annotations

import pytest

from repro.exp import Runner, get_experiment
from repro.harness.paper_claims import claim


class TestBufferPoolAblation:
    @pytest.fixture(scope="class")
    def results(self):
        spec = get_experiment("ablation-bufpool").default_spec()
        spec = spec.replace(params={**spec.params, "n_senders": 3,
                                    "packets_per_sender": 10,
                                    "pool_bytes": 3000})
        return Runner().run(spec).result

    def test_both_schemes_present(self, results):
        assert [r.kind for r in results.results] == ["fixed", "pool"]

    def test_fixed_buffers_never_lose_packets(self, results):
        fixed = results.get("fixed")
        assert fixed.delivered == fixed.offered
        assert fixed.flushed == 0

    def test_fixed_buffers_exert_backpressure(self, results):
        assert results.get("fixed").recv_blocked_ns > 0

    def test_pool_flushes_instead_of_blocking(self, results):
        pool = results.get("pool")
        assert pool.flushed > 0
        assert pool.delivered == pool.offered - pool.flushed
        assert pool.recv_blocked_ns == 0.0

    def test_pool_keeps_the_wire_moving(self, results):
        """Delivered packets see lower latency under the pool because
        the wire never stalls behind a full transit buffer."""
        assert results.get("pool").mean_latency_ns <= \
            results.get("fixed").mean_latency_ns


class TestTimingAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        spec = get_experiment("ablation-timing").default_spec().replace(
            iterations=5)
        return Runner().run(spec).result.rows

    def test_three_regimes(self, rows):
        assert len(rows) == 3
        labels = [r.label for r in rows]
        assert any("2,3" in l or "[2,3]" in l for l in labels)

    def test_assumed_regime_near_half_microsecond(self, rows):
        """The [2,3] assumption (275 + 200 ns) lands near 0.5 us."""
        assumed = rows[0]
        assert claim("f8.prior_estimate_ns").holds(assumed.overhead_ns)

    def test_paper_regime_near_1300ns(self, rows):
        paper = rows[1]
        assert claim("f8.overhead_ns").holds(paper.overhead_ns)

    def test_overhead_monotone_in_firmware_cost(self, rows):
        by_cost = sorted(rows, key=lambda r: r.firmware_cost_ns)
        overheads = [r.overhead_ns for r in by_cost]
        assert overheads == sorted(overheads)


class TestLoadAblation:
    def test_marginal_overhead_shrinks_under_load(self):
        """The paper's argument: under load the ITB delay hides behind
        queueing the packet would suffer anyway."""
        spec = get_experiment("ablation-load").default_spec().replace(
            iterations=12)
        res = Runner().run(spec).result
        assert res.overhead_unloaded_ns > 1_000.0
        assert res.marginal_fraction < 1.5  # sanity: same order
        # The headline claim: loaded marginal cost does not exceed the
        # unloaded cost by more than noise, and typically shrinks.
        assert res.overhead_loaded_ns < res.overhead_unloaded_ns * 1.25

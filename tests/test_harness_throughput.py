"""Tests for the network-level throughput harness (EXP-M1), kept small."""

from __future__ import annotations

import pytest

from repro.exp import Runner, get_experiment
from repro.harness.throughput import build_load_network
from repro.harness.workloads import (
    drive_traffic,
    hotspot_traffic,
    permutation_traffic,
    uniform_traffic,
)
from repro.topology.generators import random_irregular

import numpy as np


class TestPatterns:
    def test_uniform_never_self(self):
        hosts = [10, 11, 12, 13]
        choose = uniform_traffic(hosts)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert choose(10, rng) != 10

    def test_hotspot_fraction(self):
        hosts = list(range(10))
        choose = hotspot_traffic(hosts, hotspot=3, fraction=0.5)
        rng = np.random.default_rng(1)
        picks = [choose(0, rng) for _ in range(2000)]
        frac = picks.count(3) / len(picks)
        assert 0.45 < frac < 0.65  # 0.5 directed + uniform leakage

    def test_hotspot_fraction_validated(self):
        with pytest.raises(ValueError):
            hotspot_traffic([1, 2], hotspot=1, fraction=1.5)

    def test_permutation_is_fixed_derangement(self):
        hosts = list(range(8))
        choose = permutation_traffic(hosts, seed=3)
        rng = np.random.default_rng(0)
        first = [choose(h, rng) for h in hosts]
        second = [choose(h, rng) for h in hosts]
        assert first == second
        assert all(a != b for a, b in zip(hosts, first))
        assert sorted(first) == hosts


class TestDriveTraffic:
    def test_accounting_consistent(self):
        topo = random_irregular(4, seed=1)
        net = build_load_network(topo, "itb")
        stats = drive_traffic(net, rate_bytes_per_ns_per_host=0.01,
                              packet_size=128, duration_ns=40_000,
                              warmup_ns=5_000)
        assert stats.offered_packets > 0
        assert 0 < stats.delivered_packets <= stats.offered_packets + 5
        assert stats.delivered_bytes == \
            stats.delivered_packets * 128
        assert stats.mean_latency_ns > 0
        assert stats.p99_latency_ns >= stats.mean_latency_ns

    def test_rate_validated(self):
        topo = random_irregular(4, seed=1)
        net = build_load_network(topo, "itb")
        with pytest.raises(ValueError):
            drive_traffic(net, rate_bytes_per_ns_per_host=0.0,
                          packet_size=128, duration_ns=1_000)

    def test_deterministic_given_seed(self):
        def run():
            topo = random_irregular(4, seed=1)
            net = build_load_network(topo, "itb")
            return drive_traffic(net, rate_bytes_per_ns_per_host=0.01,
                                 packet_size=128, duration_ns=30_000,
                                 seed=9).delivered_packets

        assert run() == run()


class TestThroughputSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        spec = get_experiment("throughput").default_spec().replace(
            n_switches=8, packet_size=256,
            rates=(0.01, 0.05, 0.10),
            duration_ns=120_000, warmup_ns=20_000,
            hosts_per_switch=2,
        )
        return Runner().run(spec).result

    def test_series_structure(self, sweep):
        assert len(sweep.series("updown")) == 3
        assert len(sweep.series("itb")) == 3

    def test_low_load_equivalence(self, sweep):
        """Well below saturation both routings accept the offered load."""
        ud0 = sweep.series("updown")[0]
        itb0 = sweep.series("itb")[0]
        assert ud0.accepted == pytest.approx(
            ud0.offered_bytes_per_ns_per_host, rel=0.3)
        assert itb0.accepted == pytest.approx(
            itb0.offered_bytes_per_ns_per_host, rel=0.3)

    def test_itb_peak_at_least_updown(self, sweep):
        """The paper's motivating claim, at small scale: ITB sustains
        at least up*/down*'s throughput (the gap widens with size —
        benchmarked in benchmarks/test_bench_throughput.py)."""
        assert sweep.peak_accepted("itb") >= 0.95 * sweep.peak_accepted("updown")

    def test_latency_grows_with_load(self, sweep):
        for routing in ("updown", "itb"):
            series = sweep.series(routing)
            lats = [p.mean_latency_ns for p in series]
            assert lats[-1] > lats[0]

    def test_saturation_visible(self, sweep):
        """At the top rate the network no longer accepts everything."""
        top = sweep.series("updown")[-1]
        assert top.accepted < top.offered_bytes_per_ns_per_host * 0.98

"""Tests for the gm_allsize harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.gm.allsize import PingPongResult, allsize_sweep


def quiet_net(**kw):
    cfg = NetworkConfig(
        firmware="itb", routing="updown",
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0), **kw,
    )
    return build_network("fig6", config=cfg)


class TestPingPong:
    def test_deterministic_without_jitter(self):
        res = [quiet_net().ping_pong("host1", "host2", size=64, iterations=5)
               for _ in range(2)]
        assert np.array_equal(res[0].half_rtt_ns, res[1].half_rtt_ns)
        # Steady state: all iterations identical with zero noise.
        assert res[0].std_ns == pytest.approx(0.0, abs=1e-9)

    def test_stats_helpers(self):
        r = PingPongResult(size=8, iterations=3,
                           half_rtt_ns=np.array([1000.0, 2000.0, 3000.0]))
        assert r.mean_ns == 2000.0
        assert r.min_ns == 1000.0 and r.max_ns == 3000.0
        assert r.mean_us == 2.0

    def test_iteration_count_respected(self):
        res = quiet_net().ping_pong("host1", "host2", size=16,
                                    iterations=7, warmup=3)
        assert len(res.half_rtt_ns) == 7

    def test_jitter_produces_variance(self):
        cfg = NetworkConfig(firmware="itb", routing="updown", seed=5)
        net = build_network("fig6", config=cfg)
        res = net.ping_pong("host1", "host2", size=64, iterations=20)
        assert res.std_ns > 0

    def test_seed_reproducibility_with_jitter(self):
        def run():
            cfg = NetworkConfig(firmware="itb", routing="updown", seed=77)
            net = build_network("fig6", config=cfg)
            return net.ping_pong("host1", "host2", size=64, iterations=10)

        assert np.array_equal(run().half_rtt_ns, run().half_rtt_ns)

    def test_latency_monotone_in_size(self):
        sizes = (16, 256, 1024, 4096)
        means = [quiet_net().ping_pong("host1", "host2", size=s,
                                       iterations=3).mean_ns
                 for s in sizes]
        assert means == sorted(means)

    def test_allsize_sweep(self):
        def make(size):
            net = quiet_net()
            return net.sim, net.gm("host1"), net.gm("host2"), None, None

        results = allsize_sweep(make, sizes=(8, 64), iterations=3)
        assert [r.size for r in results] == [8, 64]
        assert all(len(r.half_rtt_ns) == 3 for r in results)

"""Cross-module integration tests: the whole stack at once."""

from __future__ import annotations

import itertools

import pytest

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.topology.generators import random_irregular


def quiet_cfg(**kw):
    defaults = dict(
        firmware="itb",
        routing="itb",
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    defaults.update(kw)
    return NetworkConfig(**defaults)


class TestAllPairsMessaging:
    """Every host pair on a random irregular network exchanges a
    message using mapper-stamped ITB routes; everything must arrive,
    exactly once, payload-length intact."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_random_network_all_pairs(self, seed):
        topo = random_irregular(6, seed=seed, hosts_per_switch=1)
        net = build_network(topo, config=quiet_cfg())
        sim = net.sim
        hosts = sorted(net.gm_hosts)
        expected = {(s, d) for s, d in itertools.permutations(hosts, 2)}
        received: set[tuple[int, int]] = set()
        done = sim.event("all-pairs-done")

        def receiver(h):
            gm = net.gm_hosts[h]
            while True:
                msg = yield gm.receive()
                assert msg.length == 64
                key = (msg.src, msg.dst)
                assert key not in received, "duplicate delivery"
                received.add(key)
                if received == expected:
                    done.succeed()

        for h in hosts:
            sim.process(receiver(h), name=f"rx[{h}]")
        for s, d in sorted(expected):
            net.gm_hosts[s].send(d, 64)
        sim.run_until_event(done)
        assert received == expected

    def test_itb_routes_actually_used(self):
        """On a network where the mapper emits ITB routes, packets
        really transit through intermediate hosts."""
        # The fig1 network guarantees at least the 4->1 pair uses an ITB.
        net = build_network("fig1", config=quiet_cfg())
        src = net.roles["host_on_sw4"]
        dst = net.roles["host_on_sw1"]
        got = net.sim.event("got")

        def receiver():
            msg = yield net.gm_hosts[dst].receive()
            got.succeed(msg)

        net.sim.process(receiver(), name="rx")
        net.gm_hosts[src].send(dst, 256)
        net.sim.run_until_event(got)
        stats = net.total_stats()
        assert stats["packets_forwarded"] >= 1


class TestFirmwareRoutingMatrix:
    """All four firmware x routing combinations behave as documented."""

    def test_original_firmware_with_updown_routes_works(self):
        net = build_network("fig6", config=quiet_cfg(
            firmware="original", routing="updown"))
        res = net.ping_pong("host1", "host2", size=128, iterations=3)
        assert res.mean_ns > 0

    def test_original_firmware_with_itb_routes_loses_packets(self):
        """Stamping ITB routes onto stock firmware drops at transit
        hosts — the incompatibility the new packet type introduces."""
        net = build_network("fig1", config=quiet_cfg(
            firmware="original", routing="itb"))
        src = net.roles["host_on_sw4"]
        dst = net.roles["host_on_sw1"]
        net.gm_hosts[src].send(dst, 64)
        net.sim.run(until=10_000_000)
        assert net.gm_hosts[dst].messages_received == 0
        assert net.total_stats()["packets_dropped_unknown"] >= 1

    def test_itb_firmware_backward_compatible(self):
        """The modified firmware carries plain up*/down* traffic
        unchanged (just the 125 ns check)."""
        net = build_network("fig6", config=quiet_cfg(
            firmware="itb", routing="updown"))
        res = net.ping_pong("host1", "host2", size=128, iterations=3)
        assert res.mean_ns > 0
        assert net.total_stats()["packets_forwarded"] == 0


class TestConservation:
    def test_packet_conservation_under_load(self):
        """No packet is created or destroyed: sent + forwarded =
        received (+ in-flight none, run drains)."""
        from repro.harness.workloads import drive_traffic
        from repro.harness.throughput import build_load_network

        topo = random_irregular(5, seed=8)
        net = build_load_network(topo, "itb")
        drive_traffic(net, rate_bytes_per_ns_per_host=0.02,
                      packet_size=256, duration_ns=50_000)
        # Let in-flight packets drain.
        net.sim.run(until=net.sim.now + 1_000_000)
        stats = net.total_stats()
        assert stats["packets_received"] == pytest.approx(
            stats["packets_sent"] + stats["packets_forwarded"]
            - stats["packets_flushed"], abs=0)

    def test_channels_all_released_after_drain(self):
        net = build_network("fig6", config=quiet_cfg())
        net.ping_pong("host1", "host2", size=4096, iterations=3)
        snapshot = net.fabric.utilization_snapshot()
        assert all(v == 0 for v in snapshot.values())

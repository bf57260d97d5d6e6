"""Tests for the network builder, config, and mapper."""

from __future__ import annotations

import pytest

from repro.core.builder import build_network
from repro.core.config import FirmwareKind, NetworkConfig, RoutingKind
from repro.core.timings import Timings
from repro.gm.mapper import run_mapper
from repro.mcp.buffers import BufferPool, FixedBuffers
from repro.mcp.firmware import ItbFirmware, OriginalFirmware
from repro.routing.routes import RouteError, SourceRoute
from repro.topology.generators import fig6_testbed, random_irregular


class TestConfig:
    def test_string_coercion(self):
        cfg = NetworkConfig(firmware="original", routing="updown")
        assert cfg.firmware is FirmwareKind.ORIGINAL
        assert cfg.routing is RoutingKind.UPDOWN

    def test_bad_firmware_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(firmware="quantum")

    def test_bad_buffer_kind_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(recv_buffer_kind="imaginary")


class TestBuildNetwork:
    def test_named_topologies(self):
        for name in ("fig6", "fig1"):
            net = build_network(name)
            assert net.topo.hosts()

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_network("fig99")

    def test_role_and_name_lookup(self):
        net = build_network("fig6")
        h = net.host_id("host1")
        assert net.host_id(h) == h
        assert net.gm("host1").host == h
        assert net.nic("host1").host == h
        with pytest.raises(KeyError):
            net.host_id("nobody")

    def test_firmware_kinds(self):
        net_o = build_network("fig6", firmware="original")
        net_i = build_network("fig6", firmware="itb")
        assert isinstance(net_o.nic("host1").firmware, OriginalFirmware)
        assert isinstance(net_i.nic("host1").firmware, ItbFirmware)

    def test_buffer_kinds(self):
        net_f = build_network("fig6",
                              config=NetworkConfig(recv_buffer_kind="fixed"))
        net_p = build_network(
            "fig6", config=NetworkConfig(recv_buffer_kind="pool",
                                         pool_bytes=2048))
        assert isinstance(net_f.nic("host1").recv_buffers, FixedBuffers)
        pool = net_p.nic("host1").recv_buffers
        assert isinstance(pool, BufferPool)
        assert pool.capacity_bytes == 2048

    def test_tables_stamped_for_all_pairs(self):
        net = build_network("fig6", routing="itb")
        hosts = net.topo.hosts()
        for h in hosts:
            table = net.nics[h].route_table
            assert table is not None
            assert table.destinations() == sorted(x for x in hosts if x != h)

    def test_total_stats_aggregates(self):
        net = build_network("fig6")
        stats = net.total_stats()
        assert stats["packets_sent"] == 0
        assert "recv_blocked_ns" in stats

    def test_kw_shortcuts_override_config(self):
        t = Timings().with_overrides(host_send_sw_ns=1.0)
        net = build_network("fig6", firmware="original", timings=t)
        assert net.config.firmware is FirmwareKind.ORIGINAL
        assert net.config.timings.host_send_sw_ns == 1.0


class TestMapper:
    def test_updown_vs_itb_tables_differ(self):
        """On the Figure 1 network the two mappers disagree on the
        showcase pair."""
        from repro.topology.generators import fig1_topology

        topo, roles = fig1_topology()
        net_ud = build_network(topo, routing="updown", roles=dict(roles))
        topo2, roles2 = fig1_topology()
        net_itb = build_network(topo2, routing="itb", roles=dict(roles2))
        src, dst = roles["host_on_sw4"], roles["host_on_sw1"]
        r_ud = net_ud.nics[src].route_table.lookup(dst)
        r_itb = net_itb.nics[src].route_table.lookup(dst)
        assert r_ud.n_itbs == 0
        assert r_itb.n_itbs == 1

    def test_overrides_stamped(self):
        topo, roles = fig6_testbed()
        h1, h2 = roles["host1"], roles["host2"]
        special = SourceRoute(src=h1, dst=h2, ports=(0, 6, 1),
                              switch_path=(roles["sw1"], roles["sw2"],
                                           roles["sw2"]))
        net = build_network(topo, roles=roles,
                            route_overrides={(h1, h2): special})
        looked_up = net.nics[h1].route_table.lookup(h2)
        assert looked_up.segments[0].ports == special.ports
        # The reverse direction still comes from the mapper.
        assert net.nics[h2].route_table.lookup(h1)

    def test_unknown_routing_rejected(self):
        topo, roles = fig6_testbed()
        from repro.nic.lanai import Nic
        from repro.network.fabric import Fabric
        from repro.sim.engine import Simulator

        sim = Simulator()
        fabric = Fabric(sim, topo, Timings())
        nics = {h: Nic(sim, fabric, Timings(), h) for h in topo.hosts()}
        with pytest.raises(RouteError):
            run_mapper(topo, nics, routing="teleport")

    def test_rebuilds_measure_identically(self):
        """Two builds of one fabric time a ping-pong to the same
        nanosecond: the mapper stamps the same routes every time."""
        first, second = (
            build_network("fig6").ping_pong("host1", "host2", size=64,
                                            iterations=3)
            for _ in range(2))
        assert first.mean_ns == second.mean_ns

    def test_override_stays_in_its_build(self):
        """A route installed into one build's table never shows in
        another build of the same topology."""
        from repro.topology.generators import fig1_topology

        topo, roles = fig1_topology()
        src, dst = roles["host_on_sw4"], roles["host_on_sw1"]
        first, second = (build_network(topo, routing="updown")
                         for _ in range(2))
        itb_net = build_network(topo, routing="itb")
        itb = itb_net.nics[src].route_table.lookup(dst)
        updown = second.nics[src].route_table.lookup(dst)
        assert itb != updown
        first.nics[src].route_table.install(dst, itb)
        assert first.nics[src].route_table.lookup(dst) is itb
        assert second.nics[src].route_table.lookup(dst) is updown

    def test_mapper_on_random_topology(self):
        topo = random_irregular(8, seed=2)
        net = build_network(topo, routing="itb")
        hosts = topo.hosts()
        table = net.nics[hosts[0]].route_table
        assert len(table) == len(hosts) - 1

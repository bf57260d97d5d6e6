"""Tests for the GM mapper's network-discovery phase."""

from __future__ import annotations

import pytest

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.gm.discovery import DiscoveryError, discover_network
from repro.topology.generators import random_irregular


def build(topo_or_name, **kw):
    cfg = NetworkConfig(
        firmware="itb", routing="updown",
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0), **kw,
    )
    return build_network(topo_or_name, config=cfg)


class TestFig6Discovery:
    @pytest.fixture(scope="class")
    def result(self):
        net = build("fig6")
        return net, discover_network(net, net.roles["host1"])

    def test_finds_both_switches(self, result):
        _, m = result
        assert m.n_switches == 2

    def test_finds_all_hosts(self, result):
        net, m = result
        assert m.hosts == sorted(net.topo.hosts())

    def test_host_attachment_correct(self, result):
        net, m = result
        for host, (label, _port) in m.host_attach.items():
            # Labels are discovery-ordered; sw0 is host1's own switch.
            expected = "sw0" if net.topo.switch_of(host) == \
                net.roles["sw1"] else "sw1"
            assert label == expected

    def test_loopback_visible_as_self_adjacency(self, result):
        """The loopback cable on switch 2 shows up as sw1 <-> sw1."""
        _, m = result
        adj = m.switch_adjacency()
        assert "sw1" in adj["sw1"]

    def test_inter_switch_cables_counted(self, result):
        """Three parallel cables = three ports leading to the peer."""
        _, m = result
        to_peer = sum(
            1 for v in m.switch_ports["sw0"].values()
            if v is not None and v == ("switch", "sw1")
        )
        assert to_peer == 3

    def test_discovery_takes_simulated_time(self, result):
        _, m = result
        assert m.elapsed_ns > 0
        assert m.probes_sent == 16  # 2 switches x 8 ports

    def test_scouts_crossed_the_wire(self, result):
        """Host probes run real packets: NIC counters moved."""
        net, m = result
        assert net.nic("host1").stats.packets_sent >= 2  # itb + host2 scouts


class TestRandomDiscovery:
    @pytest.mark.parametrize("seed", [1, 7])
    def test_reconstructed_map_isomorphic(self, seed):
        topo = random_irregular(6, seed=seed, hosts_per_switch=2)
        net = build(topo)
        mapper = sorted(net.gm_hosts)[0]
        m = discover_network(net, mapper)
        # Same switch count, same host set.
        assert m.n_switches == len(topo.switches())
        assert m.hosts == sorted(topo.hosts())
        # Degree multiset of the fabric matches.
        ours = sorted(m.degree(l) for l in m.switch_ports)
        truth = sorted(len(topo.switch_neighbors(s)) for s in topo.switches())
        assert ours == truth

    def test_probe_budget_enforced(self):
        topo = random_irregular(6, seed=3)
        net = build(topo)
        with pytest.raises(DiscoveryError):
            discover_network(net, sorted(net.gm_hosts)[0], max_probes=3)


class TestProbeErrors:
    def test_dead_ports_read_as_no_cable(self):
        """A probe through an uncabled port is a bad route: tolerated,
        and the port reads as dead."""
        net = build("fig6")
        m = discover_network(net, net.roles["host1"])
        sw1 = net.roles["sw1"]
        for port in range(net.topo.n_ports(sw1)):
            cabled = net.topo.link_at(sw1, port) is not None
            assert (m.switch_ports["sw0"][port] is not None) == cabled

    def test_non_topology_error_surfaces(self, monkeypatch):
        net = build("fig6")

        def broken(src_host, routing_ports):
            raise RuntimeError("walk failed")

        monkeypatch.setattr(net.topo, "walk_route", broken)
        with pytest.raises(RuntimeError, match="walk failed"):
            discover_network(net, net.roles["host1"])

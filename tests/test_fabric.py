"""Tests for the fabric (directed channels)."""

from __future__ import annotations

import pytest

from repro.core.timings import Timings
from repro.network.fabric import Fabric
from repro.sim.engine import Simulator
from repro.topology.generators import fig6_testbed
from repro.topology.graph import PortKind, Topology, TopologyError


@pytest.fixture
def fig6_fabric():
    topo, roles = fig6_testbed()
    sim = Simulator()
    return Fabric(sim, topo, Timings()), topo, roles


class TestChannels:
    def test_two_channels_per_cable(self, fig6_fabric):
        fabric, topo, _ = fig6_fabric
        assert len(fabric.channels()) == 2 * len(topo.links)

    def test_out_channel_resolution(self, fig6_fabric):
        fabric, topo, roles = fig6_fabric
        ch = fabric.out_channel(roles["sw1"], 0)
        assert ch.from_node == roles["sw1"]
        assert ch.to_node == roles["sw2"]
        back = fabric.out_channel(roles["sw2"], 0)
        assert back.from_node == roles["sw2"]
        assert back.to_node == roles["sw1"]
        assert ch.key != back.key

    def test_uncabled_port_rejected(self, fig6_fabric):
        fabric, _, roles = fig6_fabric
        with pytest.raises(TopologyError):
            fabric.out_channel(roles["sw1"], 7)

    def test_loopback_channels_distinct(self, fig6_fabric):
        fabric, topo, roles = fig6_fabric
        sw2 = roles["sw2"]
        a = fabric.out_channel(sw2, 6)
        b = fabric.out_channel(sw2, 7)
        assert a.key != b.key
        assert a.from_node == a.to_node == sw2
        assert a.to_port == 7 and b.to_port == 6

    def test_host_channels(self, fig6_fabric):
        fabric, topo, roles = fig6_fabric
        out = fabric.host_out(roles["host1"])
        inn = fabric.host_in(roles["host1"])
        assert out.from_node == roles["host1"]
        assert out.to_node == roles["sw1"]
        assert inn.from_node == roles["sw1"]
        assert inn.to_node == roles["host1"]

    def test_channel_between(self, fig6_fabric):
        fabric, topo, roles = fig6_fabric
        ch = fabric.channel_between(roles["sw1"], roles["sw2"])
        assert ch.from_node == roles["sw1"]
        with pytest.raises(TopologyError):
            fabric.channel_between(roles["host1"], roles["host2"])


class TestTiming:
    def test_fall_through_by_kinds(self, fig6_fabric):
        fabric, topo, roles = fig6_fabric
        t = fabric.timings
        san = fabric.out_channel(roles["sw1"], 0)   # SAN inter-switch
        lan = fabric.out_channel(roles["sw1"], 4)   # LAN inter-switch
        assert fabric.fall_through(san, san) == t.fall_through_ns[
            (PortKind.SAN, PortKind.SAN)]
        assert fabric.fall_through(san, lan) == t.fall_through_ns[
            (PortKind.SAN, PortKind.LAN)]
        assert fabric.fall_through(lan, lan) == t.fall_through_ns[
            (PortKind.LAN, PortKind.LAN)]

    def test_propagation_scales_with_length(self):
        topo = Topology()
        s1, s2 = topo.add_switch(), topo.add_switch()
        topo.connect(s1, 0, s2, 0, length_m=10.0)
        fabric = Fabric(Simulator(), topo, Timings())
        ch = fabric.out_channel(s1, 0)
        assert ch.prop_ns == pytest.approx(Timings().prop_ns_per_m * 10.0)

    def test_utilization_snapshot(self, fig6_fabric):
        fabric, _, roles = fig6_fabric
        snap = fabric.utilization_snapshot()
        assert all(v == 0 for v in snap.values())
        ch = fabric.out_channel(roles["sw1"], 0)
        ch.resource.try_acquire("x")
        assert fabric.utilization_snapshot()[ch.key] == 1


def _laned_fabric(lanes: int):
    topo, roles = fig6_testbed()
    return Fabric(Simulator(), topo, Timings(), lanes=lanes), topo, roles


class TestLanedChannels:
    def test_lane_resources_per_channel(self):
        fabric, topo, _ = _laned_fabric(3)
        for ch in fabric.channels():
            assert ch.n_lanes == 3
            assert len({id(res) for res in ch.lanes}) == 3

    def test_lane_zero_name_is_the_single_lane_name(self):
        """Event names derive from resource names — lane 0 must keep
        the exact pre-lane bytes, extra lanes get a suffix."""
        single, _, roles = _laned_fabric(1)
        multi, _, _ = _laned_fabric(3)
        for key, ch in single._channels.items():
            laned = multi._channels[key]
            assert laned.lanes[0].name == ch.resource.name
            assert laned.lanes[1].name == ch.resource.name + ":l1"
            assert laned.lanes[2].name == ch.resource.name + ":l2"

    def test_resource_property_aliases_lane_zero(self):
        fabric, _, roles = _laned_fabric(2)
        ch = fabric.out_channel(roles["sw1"], 0)
        assert ch.resource is ch.lanes[0]

    def test_utilization_snapshot_sums_lanes(self):
        fabric, _, roles = _laned_fabric(3)
        ch = fabric.out_channel(roles["sw1"], 0)
        ch.lanes[0].try_acquire("a")
        ch.lanes[2].try_acquire("b")
        snap = fabric.utilization_snapshot()
        assert set(map(len, snap)) == {2}   # keys stay 2-tuples
        assert snap[ch.key] == 2

    def test_lane_utilization_snapshot_is_per_lane(self):
        fabric, _, roles = _laned_fabric(3)
        ch = fabric.out_channel(roles["sw1"], 0)
        ch.lanes[1].try_acquire("a")
        snap = fabric.lane_utilization_snapshot()
        assert snap[ch.lane_key(0)] == 0
        assert snap[ch.lane_key(1)] == 1
        assert snap[ch.lane_key(2)] == 0
        assert len(snap) == 3 * 2 * len(fabric.topo.links)


class TestLinkDownAcrossLanes:
    """set_link_down / set_link_up with in-flight worms riding
    different lanes of the same cable."""

    @staticmethod
    def _busy_multilane_net():
        """A 2-lane round-robin net driven until some inter-switch
        cable has live claims on both lanes.

        Two hosts share the source switch, so their concurrent flights
        toward the far switch contend for the same directed channel
        and round-robin spreads them across its lanes.
        """
        from repro.core.builder import build_network
        from repro.core.config import NetworkConfig

        topo = Topology(name="two-senders")
        s1, s2 = topo.add_switch(), topo.add_switch()
        topo.connect(s1, 0, s2, 0, kind=PortKind.SAN)
        h1 = topo.attach_host(s1, 2, kind=PortKind.SAN, name="h1")
        h2 = topo.attach_host(s1, 3, kind=PortKind.SAN, name="h2")
        h3 = topo.attach_host(s2, 2, kind=PortKind.SAN, name="h3")
        topo.validate()
        config = NetworkConfig(
            firmware="itb", routing="updown",
            timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
            lanes=2, lane_policy="roundrobin",
        )
        net = build_network(topo, config=config,
                            roles={"h1": h1, "h2": h2, "h3": h3})
        a, b = net.gm("h1"), net.gm("h2")
        for tag in range(8):
            a.send(h3, 4096, tag=tag)
            b.send(h3, 4096, tag=100 + tag)
        inter = [l.link_id for l in net.topo.links
                 if net.topo.is_switch(l.node_a)
                 and net.topo.is_switch(l.node_b)]
        t = 0.0
        while True:
            t += 200.0
            net.sim.run(until=t)
            assert t < 2_000_000, "no cable ever saw both lanes claimed"
            for link_id in inter:
                for d in (0, 1):
                    if (net.fabric._claimed_by.get((link_id, d, 0))
                            and net.fabric._claimed_by.get((link_id, d, 1))):
                        return net, link_id, d

    def test_down_returns_claimants_of_every_lane(self):
        net, link_id, d = self._busy_multilane_net()
        lane0 = list(net.fabric._claimed_by[(link_id, d, 0)])
        lane1 = list(net.fabric._claimed_by[(link_id, d, 1)])
        victims = net.fabric.set_link_down(link_id)
        for worm in lane0 + lane1:
            assert worm in victims
        assert net.fabric.link_is_down(link_id)

    def test_up_clears_both_directions(self):
        net, link_id, _d = self._busy_multilane_net()
        net.fabric.set_link_down(link_id)
        net.fabric.set_link_up(link_id)
        assert not net.fabric.link_is_down(link_id)
        assert (link_id, 0) not in net.fabric.down_keys
        assert (link_id, 1) not in net.fabric.down_keys

    def test_killed_worms_release_their_lanes(self):
        from repro.network.faults import FaultEvent, FaultInjector, FaultPlan

        net, link_id, _d = self._busy_multilane_net()
        injector = FaultInjector(net, FaultPlan())
        injector._apply(FaultEvent(kind="link-down", target=link_id,
                                   at_ns=net.sim.now, repair_ns=1_000.0))
        assert injector.plan.killed_in_flight >= 2
        for direction in (0, 1):
            ch = net.fabric.channel(link_id, direction)
            for res in ch.lanes:
                assert not res.in_use

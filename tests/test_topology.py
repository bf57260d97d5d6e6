"""Unit tests for the topology graph model."""

from __future__ import annotations

import pytest

from repro.topology.graph import NodeKind, PortKind, Topology, TopologyError


@pytest.fixture
def basic():
    """Two switches, two hosts, one inter-switch SAN cable."""
    topo = Topology()
    s1 = topo.add_switch(n_ports=8, name="s1")
    s2 = topo.add_switch(n_ports=8, name="s2")
    topo.connect(s1, 0, s2, 0, kind=PortKind.SAN)
    h1 = topo.attach_host(s1, 1, kind=PortKind.LAN, name="h1")
    h2 = topo.attach_host(s2, 1, kind=PortKind.SAN, name="h2")
    return topo, s1, s2, h1, h2


class TestConstruction:
    def test_node_kinds(self, basic):
        topo, s1, s2, h1, h2 = basic
        assert topo.kind(s1) is NodeKind.SWITCH
        assert topo.kind(h1) is NodeKind.HOST
        assert topo.is_switch(s2) and topo.is_host(h2)
        assert topo.switches() == [s1, s2]
        assert topo.hosts() == [h1, h2]

    def test_switch_needs_ports(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_switch(n_ports=0)

    def test_port_bounds_checked(self, basic):
        topo, s1, s2, *_ = basic
        with pytest.raises(TopologyError):
            topo.connect(s1, 99, s2, 2)

    def test_double_cabling_rejected(self, basic):
        topo, s1, s2, *_ = basic
        with pytest.raises(TopologyError, match="already cabled"):
            topo.connect(s1, 0, s2, 3)

    def test_unknown_node_rejected(self, basic):
        topo, *_ = basic
        with pytest.raises(TopologyError):
            topo.connect(999, 0, 0, 5)

    def test_free_port_scans_in_order(self, basic):
        topo, s1, *_ = basic
        assert topo.free_port(s1) == 2  # 0 and 1 cabled

    def test_free_port_exhaustion(self):
        topo = Topology()
        s = topo.add_switch(n_ports=1)
        topo.attach_host(s, 0)
        with pytest.raises(TopologyError, match="no free ports"):
            topo.free_port(s)


class TestLoopbacks:
    def test_loopback_on_switch_allowed(self):
        topo = Topology()
        s = topo.add_switch(n_ports=4)
        lid = topo.connect(s, 0, s, 1, kind=PortKind.LAN)
        link = topo.link(lid)
        assert link.is_loop
        assert link.far_end(s, 0) == (s, 1)
        assert link.far_end(s, 1) == (s, 0)
        assert link.direction_from(s, 0) == 0
        assert link.direction_from(s, 1) == 1

    def test_loopback_same_port_rejected(self):
        topo = Topology()
        s = topo.add_switch(n_ports=4)
        with pytest.raises(TopologyError, match="distinct ports"):
            topo.connect(s, 0, s, 0)

    def test_loopback_on_host_rejected(self):
        topo = Topology()
        topo.add_switch(n_ports=4)
        h = topo.add_host()
        with pytest.raises(TopologyError):
            topo.connect(h, 0, h, 0)

    def test_other_ambiguous_on_loopback(self):
        topo = Topology()
        s = topo.add_switch(n_ports=4)
        lid = topo.connect(s, 0, s, 1)
        with pytest.raises(TopologyError, match="loopback"):
            topo.link(lid).other(s)

    def test_loopback_excluded_from_switch_neighbors(self):
        topo = Topology()
        s1 = topo.add_switch(n_ports=4)
        s2 = topo.add_switch(n_ports=4)
        topo.connect(s1, 0, s2, 0)
        topo.connect(s1, 1, s1, 2)
        neighbors = [n for (_p, n, _l) in topo.switch_neighbors(s1)]
        assert neighbors == [s2]

    def test_loopback_appears_in_neighbors_twice(self):
        topo = Topology()
        s = topo.add_switch(n_ports=4)
        topo.connect(s, 1, s, 2)
        entries = topo.neighbors(s)
        assert len(entries) == 2
        assert all(n == s for (_p, n, _l) in entries)


class TestQueries:
    def test_switch_of_host(self, basic):
        topo, s1, s2, h1, h2 = basic
        assert topo.switch_of(h1) == s1
        assert topo.switch_of(h2) == s2

    def test_switch_of_rejects_switch(self, basic):
        topo, s1, *_ = basic
        with pytest.raises(TopologyError):
            topo.switch_of(s1)

    def test_switch_of_uncabled_host(self):
        topo = Topology()
        topo.add_switch()
        h = topo.add_host()
        with pytest.raises(TopologyError, match="not cabled"):
            topo.switch_of(h)

    def test_hosts_on(self, basic):
        topo, s1, s2, h1, h2 = basic
        assert topo.hosts_on(s1) == [h1]
        assert topo.hosts_on(s2) == [h2]

    def test_links_between_and_port_toward(self, basic):
        topo, s1, s2, h1, _ = basic
        links = topo.links_between(s1, s2)
        assert len(links) == 1
        assert topo.port_toward(s1, s2) == 0
        assert topo.port_toward(s2, s1) == 0
        assert topo.port_toward(s1, h1) == 1
        with pytest.raises(TopologyError):
            topo.port_toward(h1, s2)

    def test_parallel_links(self):
        topo = Topology()
        s1, s2 = topo.add_switch(), topo.add_switch()
        topo.connect(s1, 0, s2, 0)
        topo.connect(s1, 1, s2, 1)
        assert len(topo.links_between(s1, s2)) == 2
        # port_toward picks the lowest-id cable
        assert topo.port_toward(s1, s2) == 0

    def test_link_at(self, basic):
        topo, s1, *_ = basic
        assert topo.link_at(s1, 0) is not None
        assert topo.link_at(s1, 7) is None


class TestWalkRoute:
    def test_walks_to_destination(self, basic):
        topo, s1, s2, h1, h2 = basic
        # h1 -> s1(port 0 -> s2) -> s2(port 1 -> h2)
        assert topo.walk_route(h1, [0, 1]) == h2

    def test_walks_through_loopback(self):
        topo = Topology()
        s = topo.add_switch(n_ports=6)
        topo.connect(s, 0, s, 1)
        h1 = topo.attach_host(s, 2, name="a")
        h2 = topo.attach_host(s, 3, name="b")
        # h1 -> s(loop out port 0 -> back in port 1) -> s(port 3 -> h2)
        assert topo.walk_route(h1, [0, 3]) == h2

    def test_uncabled_port_is_error(self, basic):
        topo, _, _, h1, _ = basic
        with pytest.raises(TopologyError, match="not cabled"):
            topo.walk_route(h1, [7])

    def test_route_through_host_is_error(self, basic):
        topo, _, _, h1, _ = basic
        # Second byte would be consumed at host h2.
        with pytest.raises(TopologyError, match="non-switch"):
            topo.walk_route(h1, [0, 1, 0])


class TestValidate:
    def test_valid_topology_passes(self, basic):
        basic[0].validate()

    def test_disconnected_fabric_fails(self):
        topo = Topology()
        topo.add_switch()
        topo.add_switch()
        with pytest.raises(TopologyError, match="not connected"):
            topo.validate()

    def test_hosts_without_switches_fails(self):
        topo = Topology()
        h1 = topo.add_host()
        h2 = topo.add_host()
        with pytest.raises(TopologyError):
            topo.connect(h1, 0, h2, 0)  # host-to-host cabling
            topo.validate()

    def test_loopbacks_alone_do_not_connect(self):
        """Two switches, each cabled only to itself: not connected."""
        topo = Topology()
        s1 = topo.add_switch()
        s2 = topo.add_switch()
        topo.connect(s1, 0, s1, 1)
        topo.connect(s2, 0, s2, 1)
        with pytest.raises(TopologyError, match="not connected"):
            topo.validate()

    def test_loopback_plus_one_cable_connected(self):
        topo = Topology()
        s1 = topo.add_switch()
        s2 = topo.add_switch()
        topo.connect(s1, 0, s1, 1)
        topo.connect(s1, 2, s2, 0)
        topo.validate()

    def test_parallel_cables_connected(self):
        topo = Topology()
        s1 = topo.add_switch()
        s2 = topo.add_switch()
        for port in range(3):
            topo.connect(s1, port, s2, port)
        topo.validate()

    def test_two_islands_not_connected(self):
        """Every switch has a neighbour, but the search from the first
        switch never reaches the second pair."""
        topo = Topology()
        s = [topo.add_switch() for _ in range(4)]
        topo.connect(s[0], 0, s[1], 0)
        topo.connect(s[2], 0, s[3], 0)
        with pytest.raises(TopologyError, match="not connected"):
            topo.validate()
        topo.connect(s[1], 1, s[2], 1)
        topo.validate()

    def test_growth_after_validate_is_seen(self, basic):
        """A switch added after a passing check is not yet cabled."""
        topo = basic[0]
        topo.validate()
        topo.add_switch()
        with pytest.raises(TopologyError, match="not connected"):
            topo.validate()

"""Tests for channel-dependency-graph deadlock analysis."""

from __future__ import annotations

import functools

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.lanes import escape_lane_walk
from repro.routing.cdg import (
    DependencyGraph,
    _segment_channels,
    _segment_steps,
    channel_dependency_graph,
    find_dependency_cycle,
    is_deadlock_free,
    iter_segments,
    lanes_required,
)
from repro.routing.itb import ItbRouter
from repro.routing.minimal import MinimalRouter
from repro.routing.routes import ItbRoute, SourceRoute
from repro.routing.spanning_tree import build_orientation
from repro.routing.updown import UpDownRouter
from repro.topology.graph import PortKind, Topology


def ring_topology(n: int = 4):
    """A ring of switches — the canonical deadlock-prone fabric."""
    topo = Topology(name=f"ring-{n}")
    sw = [topo.add_switch(n_ports=8) for _ in range(n)]
    for i in range(n):
        a, b = sw[i], sw[(i + 1) % n]
        topo.connect(a, topo.free_port(a), b, topo.free_port(b),
                     kind=PortKind.SAN)
    hosts = [topo.attach_host(s, topo.free_port(s)) for s in sw]
    topo.validate()
    return topo, sw, hosts


def cyclic_routes(topo, sw, hosts):
    """Hand-built routes that all turn the same way around the ring,
    creating the textbook cyclic channel dependency."""
    n = len(sw)
    routes = []
    for i in range(n):
        j = (i + 2) % n  # two hops clockwise
        path = [sw[i], sw[(i + 1) % n], sw[j]]
        ports = [topo.port_toward(a, b) for a, b in zip(path, path[1:])]
        ports.append(topo.port_toward(sw[j], hosts[j]))
        routes.append(SourceRoute(src=hosts[i], dst=hosts[j],
                                  ports=tuple(ports),
                                  switch_path=tuple(path)))
    return routes


class TestCycleDetection:
    def test_ring_clockwise_routes_cycle(self):
        topo, sw, hosts = ring_topology(4)
        routes = cyclic_routes(topo, sw, hosts)
        cycle = find_dependency_cycle(topo, routes)
        assert cycle is not None
        assert not is_deadlock_free(topo, routes)

    def test_itb_split_breaks_the_cycle(self):
        """Eject-and-reinject at every second switch: the identical
        switch walk becomes deadlock-free — the paper's core argument."""
        topo, sw, hosts = ring_topology(4)
        n = len(sw)
        split_routes = []
        for i in range(n):
            mid = (i + 1) % n
            j = (i + 2) % n
            seg1 = SourceRoute(
                src=hosts[i], dst=hosts[mid],
                ports=(topo.port_toward(sw[i], sw[mid]),
                       topo.port_toward(sw[mid], hosts[mid])),
                switch_path=(sw[i], sw[mid]),
            )
            seg2 = SourceRoute(
                src=hosts[mid], dst=hosts[j],
                ports=(topo.port_toward(sw[mid], sw[j]),
                       topo.port_toward(sw[j], hosts[j])),
                switch_path=(sw[mid], sw[j]),
            )
            split_routes.append(ItbRoute((seg1, seg2)))
        assert is_deadlock_free(topo, split_routes)

    def test_updown_on_ring_acyclic(self):
        topo, sw, hosts = ring_topology(6)
        router = UpDownRouter(topo)
        assert is_deadlock_free(topo, router.all_pairs().values())

    def test_minimal_on_ring_cyclic(self):
        topo, sw, hosts = ring_topology(6)
        router = MinimalRouter(topo)
        routes = [router.route(s, d) for s in hosts for d in hosts if s != d]
        assert not is_deadlock_free(topo, routes)

    def test_itb_router_on_ring_acyclic(self):
        topo, sw, hosts = ring_topology(6)
        router = ItbRouter(topo, build_orientation(topo))
        assert is_deadlock_free(topo, router.all_pairs().values())


class TestEscapeLanes:
    """The ISSUE-7 acceptance property: on a topology where minimal
    routing deadlocks without lanes, the escape-lane policy restores a
    provable deadlock-freedom guarantee."""

    def test_escape_lanes_fix_the_ring_cycle(self):
        topo, sw, hosts = ring_topology(4)
        routes = cyclic_routes(topo, sw, hosts)
        # Without lanes: the textbook cycle.
        assert not is_deadlock_free(topo, routes)
        # Sized by the dateline walk, the laned CDG is acyclic.
        need = lanes_required(topo, routes)
        assert need == 2
        assert is_deadlock_free(topo, routes, n_lanes=need,
                                lane_policy="escape")

    def test_escape_lanes_fix_minimal_all_pairs(self):
        """Full minimal all-pairs on a bigger ring: cyclic unlaned,
        acyclic under escape lanes sized by ``lanes_required``."""
        topo, sw, hosts = ring_topology(6)
        router = MinimalRouter(topo)
        routes = [router.route(s, d) for s in hosts for d in hosts if s != d]
        assert not is_deadlock_free(topo, routes)
        need = lanes_required(topo, routes)
        assert is_deadlock_free(topo, routes, n_lanes=need,
                                lane_policy="escape")

    def test_laned_graph_nodes_carry_lane_index(self):
        topo, sw, hosts = ring_topology(4)
        routes = cyclic_routes(topo, sw, hosts)
        g = channel_dependency_graph(topo, routes, n_lanes=2,
                                     lane_policy="escape")
        assert all(len(node) == 3 for node in g.nodes)
        assert {node[2] for node in g.nodes} == {0, 1}

    def test_static_policies_verify_on_collapsed_graph(self):
        """Fixed/round-robin assignments inherit the channel-level
        verdict (the projection argument): cyclic routes stay cyclic,
        acyclic ones stay acyclic, regardless of lane count."""
        topo, sw, hosts = ring_topology(4)
        routes = cyclic_routes(topo, sw, hosts)
        for policy in ("fixed", "roundrobin"):
            assert not is_deadlock_free(topo, routes, n_lanes=3,
                                        lane_policy=policy)
        ud = UpDownRouter(topo)
        for policy in ("fixed", "roundrobin"):
            assert is_deadlock_free(topo, ud.all_pairs().values(),
                                    n_lanes=3, lane_policy=policy)

    def test_escape_below_requirement_not_trusted(self):
        """A clamped walk leaves the dateline scheme; the analysis
        checks the clamped assignment honestly (here: one lane under
        the escape name is just the collapsed cyclic graph)."""
        topo, sw, hosts = ring_topology(4)
        routes = cyclic_routes(topo, sw, hosts)
        assert not is_deadlock_free(topo, routes, n_lanes=1,
                                    lane_policy="escape")


class TestGraphStructure:
    def test_nodes_are_directed_channels(self):
        topo, sw, hosts = ring_topology(3)
        router = UpDownRouter(topo)
        route = router.route(hosts[0], hosts[1])
        g = channel_dependency_graph(topo, [route])
        # injection channel + fabric hops + delivery channel
        assert g.number_of_nodes() == route.n_links
        assert g.number_of_edges() == route.n_links - 1

    def test_opposite_directions_are_distinct_channels(self):
        topo, sw, hosts = ring_topology(3)
        router = UpDownRouter(topo)
        g = channel_dependency_graph(
            topo,
            [router.route(hosts[0], hosts[1]),
             router.route(hosts[1], hosts[0])],
        )
        # The forward and reverse routes share the physical cable but
        # not channels: no node appears in both chains.
        link = topo.links_between(sw[0], sw[1])[0]
        assert (link.link_id, 0) in g.nodes or (link.link_id, 1) in g.nodes


class TestFindCycle:
    def test_empty_graph_is_acyclic(self):
        g = DependencyGraph()
        assert g.find_cycle() is None
        assert g.number_of_nodes() == g.number_of_edges() == 0

    def test_self_loop_is_a_cycle(self):
        g = DependencyGraph()
        g.add_edge("a", "a")
        assert g.find_cycle() == ["a"]

    def test_first_cycle_in_insertion_order(self):
        """Two disjoint cycles: the search starts at the first node
        inserted, so it returns that node's cycle, in edge order."""
        g = DependencyGraph()
        for a, b in [(1, 2), (2, 3), (3, 1), (4, 5), (5, 4)]:
            g.add_edge(a, b)
        assert g.find_cycle() == [1, 2, 3]

    def test_reconverging_paths_are_not_a_cycle(self):
        """0 reaches 2 twice (directly and through 1), and 3 reaches the
        finished 2 again: neither closes a cycle; 3 <-> 4 does."""
        g = DependencyGraph()
        for a, b in [(0, 1), (1, 2), (0, 2), (3, 2), (3, 4), (4, 3)]:
            g.add_edge(a, b)
        assert g.find_cycle() == [3, 4]

    def test_parallel_edges_collapse(self):
        g = DependencyGraph()
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        assert g.number_of_edges() == 1
        assert list(g.nodes) == [0, 1]


# -- networkx as an oracle ----------------------------------------------

def _oracle_graph(topo, routes, n_lanes=1, lane_policy="fixed"):
    """The CDG of ``routes`` as a networkx DiGraph, built edge by edge
    from the same channel walk the module uses."""
    laned = n_lanes > 1 and lane_policy == "escape"
    g = nx.DiGraph()
    for route in routes:
        for seg in iter_segments(route):
            chans = _segment_channels(topo, seg)
            if laned:
                lanes = escape_lane_walk(_segment_steps(topo, seg), n_lanes)
                chans = [(*ch, lane) for ch, lane in zip(chans, lanes)]
            nx.add_path(g, chans)
    return g


ROUTE_SETS = ("ring-minimal", "ring-clockwise", "updown", "itb",
              "escape-clockwise", "escape-minimal")


@functools.cache
def _route_sets():
    """``name -> (topo, routes, n_lanes, lane_policy)`` for the route
    sets this file builds (:data:`ROUTE_SETS`): cyclic and acyclic,
    plain, ITB and laned."""
    ring4, sw4, hosts4 = ring_topology(4)
    ring6, _sw6, hosts6 = ring_topology(6)
    minimal = MinimalRouter(ring6)
    minimal_routes = [minimal.route(s, d) for s in hosts6 for d in hosts6
                      if s != d]
    cyclic = cyclic_routes(ring4, sw4, hosts4)
    itb = ItbRouter(ring6, build_orientation(ring6))
    return {
        "ring-minimal": (ring6, minimal_routes, 1, "fixed"),
        "ring-clockwise": (ring4, cyclic, 1, "fixed"),
        "updown": (ring6, list(UpDownRouter(ring6).all_pairs().values()),
                   1, "fixed"),
        "itb": (ring6, list(itb.all_pairs().values()), 1, "fixed"),
        "escape-clockwise": (ring4, cyclic, 2, "escape"),
        "escape-minimal": (ring6, minimal_routes,
                           lanes_required(ring6, minimal_routes), "escape"),
    }


def _assert_matches_oracle(g: DependencyGraph, oracle: "nx.DiGraph"):
    assert list(g.nodes) == list(oracle.nodes)
    assert g.number_of_nodes() == oracle.number_of_nodes()
    assert g.number_of_edges() == oracle.number_of_edges()
    cycle = g.find_cycle()
    assert (cycle is None) == nx.is_directed_acyclic_graph(oracle)
    if cycle is not None:
        # A closed walk over existing edges, through distinct nodes.
        assert len(set(cycle)) == len(cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert oracle.has_edge(a, b)


class TestNetworkxOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    max_size=24))
    def test_random_edge_lists(self, edges):
        g = DependencyGraph()
        oracle = nx.DiGraph()
        for a, b in edges:
            g.add_edge(a, b)
            oracle.add_edge(a, b)
        _assert_matches_oracle(g, oracle)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ROUTE_SETS), st.data())
    def test_route_subsets(self, name, data):
        """Any subset of a route set: the full cyclic sets, and the
        acyclic subsets hidden inside them."""
        topo, routes, n_lanes, policy = _route_sets()[name]
        picked = data.draw(st.lists(st.sampled_from(routes), max_size=12))
        for subset in (routes, picked):
            g = channel_dependency_graph(topo, subset, n_lanes=n_lanes,
                                         lane_policy=policy)
            _assert_matches_oracle(
                g, _oracle_graph(topo, subset, n_lanes, policy))
            assert (find_dependency_cycle(topo, subset, n_lanes=n_lanes,
                                          lane_policy=policy)
                    == g.find_cycle())

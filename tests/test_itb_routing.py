"""Tests for the ITB router — the paper's core routing contribution."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.cdg import is_deadlock_free
from repro.routing.itb import ItbRouter, first_host_policy, round_robin_policy
from repro.routing.minimal import MinimalRouter, _switch_adjacency
from repro.routing.routes import Direction, RouteError
from repro.routing.spanning_tree import UpDownOrientation, build_orientation
from repro.routing.updown import UpDownRouter
from repro.topology.generators import fig1_topology, linear_switches, random_irregular
from repro.topology.graph import PortKind, Topology


@pytest.fixture
def fig1_setup():
    topo, roles = fig1_topology()
    orientation = build_orientation(topo, root=roles["sw0"])
    return topo, roles, ItbRouter(topo, orientation)


class TestShowcase:
    """The exact Figure 1 scenario."""

    def test_minimal_route_legalized_with_one_itb(self, fig1_setup):
        topo, roles, router = fig1_setup
        route = router.itb_route(roles["host_on_sw4"], roles["host_on_sw1"])
        assert route.n_itbs == 1
        # The in-transit host sits on switch 6, where the down->up
        # transition occurs.
        assert topo.switch_of(route.itb_hosts[0]) == roles["sw6"]
        # Segment switch paths: 4->6 then 6->1.
        assert list(route.segments[0].switch_path) == [roles["sw4"], roles["sw6"]]
        assert list(route.segments[1].switch_path) == [roles["sw6"], roles["sw1"]]

    def test_uses_fewer_fabric_links_than_updown(self, fig1_setup):
        topo, roles, router = fig1_setup
        ud = UpDownRouter(topo, router.orientation)
        r_itb = router.itb_route(roles["host_on_sw4"], roles["host_on_sw1"])
        r_ud = ud.route(roles["host_on_sw4"], roles["host_on_sw1"])
        assert len(r_itb.switch_hops()) < len(r_ud.switch_hops())

    def test_segments_each_valid_updown(self, fig1_setup):
        topo, roles, router = fig1_setup
        route = router.itb_route(roles["host_on_sw4"], roles["host_on_sw1"])
        for seg in route.segments:
            assert router.orientation.is_valid_updown_path(
                topo, list(seg.switch_path))


def _flipped(topo, orientation):
    """The orientation with every link's up end swapped."""
    flipped = UpDownOrientation(root=orientation.root,
                                level=dict(orientation.level),
                                parent=dict(orientation.parent))
    for link in topo.links:
        up = orientation.up_end.get(link.link_id)
        if up is not None:
            flipped.up_end[link.link_id] = (link.node_b if up == link.node_a
                                            else link.node_a)
    return flipped


class TestTemplateChecks:
    """Templates are validated once per switch pair, and that check
    still rejects every corruption the per-pair rebuild rejected."""

    @pytest.fixture
    def study(self):
        topo = random_irregular(8, seed=11, hosts_per_switch=2)
        orientation = build_orientation(topo)
        return topo, orientation, ItbRouter(topo, orientation).all_pairs()

    def test_port_byte_to_wrong_switch_raises(self, study, monkeypatch):
        topo, orientation, routes = study
        adjacency = _switch_adjacency(topo)
        for (s, d), route in routes.items():
            seg = route.segments[0]
            if route.n_itbs and len(seg.switch_path) >= 2:
                a, b = seg.switch_path[:2]
                others = [n for n in adjacency[a] if n != b]
                if others:
                    break
        else:
            pytest.skip("no ITB route with a detour-able first hop")
        table = topo.derived("port_toward", topo._build_port_table)
        monkeypatch.setitem(table, (a, b), table[(a, others[0])])
        with pytest.raises(RouteError, match="does not lead to"):
            ItbRouter(topo, orientation).itb_route(s, d)
        with pytest.raises(RouteError, match="does not lead to"):
            UpDownRouter(topo, orientation).route_via(
                seg.src, seg.dst, list(seg.switch_path))

    def test_exit_port_to_wrong_host_raises(self, study, monkeypatch):
        topo, orientation, routes = study
        s, d = next(pair for pair, route in routes.items() if route.n_itbs)
        sw = topo.switch_of(d)
        other = next(h for h in topo.hosts_on(sw) if h != d)
        table = topo.derived("port_toward", topo._build_port_table)
        monkeypatch.setitem(table, (sw, d), table[(sw, other)])
        with pytest.raises(RouteError, match="does not lead to"):
            ItbRouter(topo, orientation).itb_route(s, d)
        with pytest.raises(RouteError, match="does not lead to"):
            UpDownRouter(topo, orientation).route(s, d)

    def test_segment_invalid_under_orientation_raises(self, study):
        from tests.oracles.itb import plan_of

        topo, orientation, routes = study
        for (s, d), route in routes.items():
            seg = next((seg for seg in route.segments
                        if _climbs_then_descends(topo, orientation,
                                                 seg.switch_path)), None)
            if seg is not None:
                break
        else:
            pytest.skip("no segment both climbs and descends")
        flipped = _flipped(topo, orientation)
        assert not flipped.is_valid_updown_path(topo, seg.switch_path)
        with pytest.raises(RouteError, match="still invalid"):
            ItbRouter(topo, flipped).adopt_plan(
                topo.switch_of(s), topo.switch_of(d), *plan_of(route))
        with pytest.raises(RouteError, match="not up"):
            UpDownRouter(topo, flipped).route_via(
                seg.src, seg.dst, list(seg.switch_path))

    def test_stamp_rejects_host_off_the_cut_switch(self, study):
        topo, orientation, routes = study
        s, d = next(pair for pair, route in routes.items() if route.n_itbs)
        router = ItbRouter(topo, orientation)
        template = router.template(topo.switch_of(s), topo.switch_of(d))
        cut = template[0][2]
        stranger = next(h for h in topo.hosts()
                        if topo.switch_of(h) != cut)
        with pytest.raises(RouteError, match="not attached"):
            router.stamp(s, d, template, (stranger,) * (len(template) - 1))
        with pytest.raises(RouteError, match="cuts need"):
            router.stamp(s, d, template, ())


def _climbs_then_descends(topo, orientation, switch_path):
    dirs = orientation.path_directions(topo, switch_path)
    return any(a is Direction.UP and b is Direction.DOWN
               for a, b in zip(dirs, dirs[1:]))


class TestAllPairs:
    def test_all_routes_valid_deliverable_deadlock_free(self, fig1_setup):
        topo, roles, router = fig1_setup
        routes = router.all_pairs()
        for (s, d), route in routes.items():
            assert route.src == s and route.dst == d
            current = s
            for seg in route.segments:
                assert topo.walk_route(current, list(seg.ports)) == seg.dst
                current = seg.dst
                assert router.orientation.is_valid_updown_path(
                    topo, list(seg.switch_path))
        assert is_deadlock_free(topo, routes.values())

    def test_inter_switch_hops_match_minimal_when_legalizable(self, fig1_setup):
        """With a host on every switch, ITB routing achieves minimal
        inter-switch hop counts for every pair (the paper's claim)."""
        topo, roles, router = fig1_setup
        mn = MinimalRouter(topo)
        for s, d in itertools.permutations(topo.hosts(), 2):
            route = router.itb_route(s, d)
            minimal = mn.route(s, d)
            assert len(route.switch_hops()) == len(minimal.switch_hops())

    def test_valid_paths_get_no_itbs(self, fig1_setup):
        """Pairs whose minimal path is already legal use zero ITBs."""
        topo, roles, router = fig1_setup
        route = router.itb_route(roles["host_on_sw0"], roles["host_on_sw1"])
        assert route.n_itbs == 0


class TestFallbacks:
    def _hostless_violation_topo(self):
        """Fig-1-like shortcut whose violation switch has NO host."""
        topo = Topology()
        sw = [topo.add_switch(n_ports=8) for i in range(5)]

        def join(a, b):
            topo.connect(sw[a], topo.free_port(sw[a]),
                         sw[b], topo.free_port(sw[b]), kind=PortKind.SAN)

        join(0, 1)
        join(0, 2)
        join(2, 4)
        join(1, 3)  # sw3 = the shortcut switch, kept hostless
        join(4, 3)
        hosts = {}
        for i in (0, 1, 2, 4):
            hosts[i] = topo.attach_host(sw[i], topo.free_port(sw[i]))
        topo.validate()
        return topo, sw, hosts

    def test_fallback_to_updown_when_no_host(self):
        topo, sw, hosts = self._hostless_violation_topo()
        orientation = build_orientation(topo, root=sw[0])
        router = ItbRouter(topo, orientation, allow_longer=False)
        ud = UpDownRouter(topo, orientation)
        # 4 -> 3 -> 1 is minimal but 3 is hostless; must fall back.
        route = router.itb_route(hosts[4], hosts[1])
        assert route.n_itbs == 0
        assert route.segments[0].switch_path == \
            ud.route(hosts[4], hosts[1]).switch_path

    def test_allow_longer_finds_legalizable_path(self):
        """allow_longer searches longer paths with ITBs where that
        beats the up*/down* fallback; here it can't beat it, so the
        result must still be at least as short."""
        topo, sw, hosts = self._hostless_violation_topo()
        orientation = build_orientation(topo, root=sw[0])
        router = ItbRouter(topo, orientation, allow_longer=True)
        ud = UpDownRouter(topo, orientation)
        route = router.itb_route(hosts[4], hosts[1])
        assert route.n_switches <= ud.route(hosts[4], hosts[1]).n_switches

    def test_same_host_rejected(self, fig1_setup):
        _, roles, router = fig1_setup
        with pytest.raises(RouteError):
            router.itb_route(roles["host_on_sw0"], roles["host_on_sw0"])


class TestHostPolicies:
    def test_first_host_policy_deterministic(self):
        topo = linear_switches(2, hosts_per_switch=3)
        s = topo.switches()[0]
        assert first_host_policy(topo, s, -1, -1) == topo.hosts_on(s)[0]

    def test_first_host_policy_raises_on_hostless(self):
        topo = Topology()
        s1 = topo.add_switch()
        s2 = topo.add_switch()
        topo.connect(s1, 0, s2, 0)
        topo.attach_host(s2, 1)
        with pytest.raises(RouteError):
            first_host_policy(topo, s1, -1, -1)

    def test_round_robin_rotates(self):
        topo = linear_switches(2, hosts_per_switch=3)
        s = topo.switches()[0]
        policy = round_robin_policy()
        hosts = topo.hosts_on(s)
        picks = [policy(topo, s, -1, -1) for _ in range(6)]
        assert picks == hosts + hosts

    def test_router_accepts_policy(self, fig1_setup):
        topo, roles, _ = fig1_setup
        orientation = build_orientation(topo, root=roles["sw0"])
        router = ItbRouter(topo, orientation, host_policy=round_robin_policy())
        route = router.itb_route(roles["host_on_sw4"], roles["host_on_sw1"])
        assert route.n_itbs == 1


class TestPropertyBased:
    @given(n=st.integers(min_value=3, max_value=12),
           seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_random_topologies_routes_always_sound(self, n, seed):
        """On any random irregular COW: every ITB route is deliverable,
        every segment is up*/down*-valid, the route set is deadlock-free,
        and inter-switch hop counts never exceed up*/down*'s."""
        topo = random_irregular(n, seed=seed)
        orientation = build_orientation(topo)
        router = ItbRouter(topo, orientation)
        ud = UpDownRouter(topo, orientation)
        routes = router.all_pairs()
        for (s, d), route in routes.items():
            current = s
            for seg in route.segments:
                assert topo.walk_route(current, list(seg.ports)) == seg.dst
                assert router.orientation.is_valid_updown_path(
                    topo, list(seg.switch_path))
                current = seg.dst
            assert current == d
            assert len(route.switch_hops()) <= \
                len(ud.route(s, d).switch_hops())
        assert is_deadlock_free(topo, routes.values())

"""Batched all-pairs route construction vs the per-pair oracles.

The scale-study tentpole rewired route construction around per-source
trees; the per-pair searches are kept as oracles (``*_pairwise`` in
``tests/oracles/``).  These tests pin the equivalence — same routes,
byte for byte, in the same insertion order — on every topology family
the repo ships, plus the laziness behavior that rides on the batch
path.

The pairwise ITB oracle plans each pair on its own but stamps through
the router's ``_make_template`` and ``_route``, so it shares the
router's interned sub-paths and segments.  Every route is therefore
also rebuilt hop by hop by ``tests/oracles/itb.reference_route``,
which shares no memo with the routers, and the sharing itself — one
object per distinct route part, scoped to one router — is pinned
directly.
"""

from __future__ import annotations

import pytest

from repro.routing.itb import ItbRouter, round_robin_policy
from repro.routing.minimal import MinimalRouter
from repro.routing.spanning_tree import build_orientation
from repro.routing.updown import UpDownRouter
from repro.topology.generators import (
    clos,
    fat_tree,
    fig1_topology,
    fig6_testbed,
    random_irregular,
    random_irregular_scaled,
    torus_2d,
)
from tests.oracles import itb as itb_oracle
from tests.oracles import updown as updown_oracle


def _topologies():
    yield "fig6", fig6_testbed()[0]
    yield "fig1", fig1_topology()[0]
    yield "random", random_irregular(12, seed=3)
    yield "scaled", random_irregular_scaled(24, seed=7)
    yield "clos", clos(m=3, n=1, r=6)
    yield "fattree", fat_tree(k=4)
    yield "torus", torus_2d(3, 3)


TOPOLOGIES = list(_topologies())
IDS = [name for name, _ in TOPOLOGIES]


@pytest.mark.parametrize("topo", [t for _, t in TOPOLOGIES], ids=IDS)
class TestBatchedEqualsPairwise:
    def test_updown(self, topo):
        orientation = build_orientation(topo)
        batched = UpDownRouter(topo, orientation).all_pairs()
        oracle = updown_oracle.all_pairs_pairwise(
            UpDownRouter(topo, orientation))
        assert list(batched) == list(oracle)  # insertion order too
        assert batched == oracle

    def test_itb(self, topo):
        orientation = build_orientation(topo)
        batched = ItbRouter(topo, orientation).all_pairs()
        oracle = itb_oracle.all_pairs_pairwise(ItbRouter(topo, orientation))
        assert list(batched) == list(oracle)
        assert batched == oracle

    def test_minimal_routes_from(self, topo):
        router = MinimalRouter(topo)
        hosts = topo.hosts()
        src = hosts[0]
        routes = router.routes_from(src)
        for d in hosts:
            if d != src:
                assert routes[d] == router.route(src, d)


def _reference_mismatches(topo, orientation, routes):
    """Routes that differ from the hop-by-hop build of their own plan."""
    bad = []
    for (s, d), route in routes.items():
        path, splits = itb_oracle.plan_of(route)
        itb_hosts = iter(route.itb_hosts)

        def choose(switch):
            host = next(itb_hosts)
            assert topo.switch_of(host) == switch
            return host

        if itb_oracle.reference_route(topo, orientation, s, d, path, splits,
                                      choose) != route:
            bad.append((s, d))
    return bad


@pytest.mark.parametrize("topo", [t for _, t in TOPOLOGIES], ids=IDS)
class TestHopByHopReference:
    """Stamped routes equal the memo-free hop-by-hop reference build."""

    def test_itb(self, topo):
        orientation = build_orientation(topo)
        routes = ItbRouter(topo, orientation).all_pairs()
        assert _reference_mismatches(topo, orientation, routes) == []

    def test_updown(self, topo):
        orientation = build_orientation(topo)
        routes = UpDownRouter(topo, orientation).itb_all_pairs()
        assert _reference_mismatches(topo, orientation, routes) == []


class TestSharedRouteParts:
    """Each router stores a shared route part once, and only for itself."""

    @pytest.fixture(scope="class")
    def topo(self):
        return random_irregular(16, seed=11, hosts_per_switch=2)

    def test_itb_first_segment_shared_across_destinations(self, topo):
        routes = ItbRouter(topo).all_pairs()
        firsts: dict = {}
        for route in routes.values():
            if route.n_itbs:
                seg = route.segments[0]
                firsts.setdefault((seg.src, seg.dst, seg.switch_path),
                                  []).append(seg)
        shared = [segs for segs in firsts.values() if len(segs) > 1]
        assert shared, "no two ITB routes leave a source the same way"
        for segs in shared:
            assert all(seg is segs[0] for seg in segs)

    def test_one_segment_object_per_distinct_segment(self, topo):
        routes = ItbRouter(topo).all_pairs()
        segments = [seg for route in routes.values() for seg in route]
        values = {(seg.src, seg.dst, seg.switch_path) for seg in segments}
        assert len({id(seg) for seg in segments}) == len(values)
        assert len(values) < len(segments)

    def test_updown_rows_shared_by_co_located_hosts(self, topo):
        routes = UpDownRouter(topo).all_pairs()
        a, b = next(hosts for hosts in map(topo.hosts_on, topo.switches())
                    if len(hosts) >= 2)[:2]
        for d in topo.hosts():
            if d not in (a, b):
                assert routes[(a, d)].ports is routes[(b, d)].ports
                assert (routes[(a, d)].switch_path
                        is routes[(b, d)].switch_path)

    @pytest.mark.parametrize("router", [ItbRouter, UpDownRouter])
    def test_routers_share_no_source_route(self, topo, router):
        orientation = build_orientation(topo)
        first, second = (router(topo, orientation).itb_all_pairs()
                         for _ in range(2))
        assert first == second
        ids = {id(seg) for route in first.values() for seg in route}
        assert not ids & {id(seg) for route in second.values()
                          for seg in route}


class TestBatchedStatefulPolicy:
    def test_round_robin_parity(self):
        """A stateful host policy sees the same call sequence batched
        and per-pair (plans never consult the policy; only builds do,
        once per host pair in destination order)."""
        topo = random_irregular(12, seed=3)
        orientation = build_orientation(topo)
        batched = ItbRouter(topo, orientation,
                            host_policy=round_robin_policy()).all_pairs()
        oracle = itb_oracle.all_pairs_pairwise(ItbRouter(
            topo, orientation, host_policy=round_robin_policy()))
        assert batched == oracle


class TestRoutesFromSubsets:
    def test_dests_subset_and_strict(self):
        topo = random_irregular(10, seed=5)
        router = UpDownRouter(topo)
        hosts = topo.hosts()
        src = hosts[0]
        subset = hosts[1:4]
        routes = router.routes_from(src, dests=subset)
        assert list(routes) == subset
        full = router.routes_from(src)
        assert {d: full[d] for d in subset} == routes

    def test_src_excluded(self):
        topo = random_irregular(8, seed=2)
        router = ItbRouter(topo)
        src = topo.hosts()[0]
        assert src not in router.routes_from(src)


class TestLazyDerivedState:
    def test_build_does_not_compute_distance_maps(self):
        """Constructing and validating a topology must stay O(V+E):
        the per-source BFS distance maps are computed on first routing
        use, not eagerly (satellite of the scale tentpole — building
        512-switch fabrics is decoupled from routing them)."""
        topo = random_irregular_scaled(32, seed=9)
        topo.validate()
        assert not any(
            isinstance(k, tuple) and k[0] == "switch_distances"
            for k in topo._derived
        )
        build_orientation(topo)  # root election walks every source
        assert any(
            isinstance(k, tuple) and k[0] == "switch_distances"
            for k in topo._derived
        )

"""Batched all-pairs route construction vs the per-pair oracles.

The scale-study tentpole rewired route construction around per-source
trees; the per-pair searches are kept as oracles (``*_pairwise`` in
``tests/oracles/``).  These tests pin the equivalence — same routes,
byte for byte, in the same insertion order — on every topology family
the repo ships, plus the cache and laziness behaviors that ride on
the batch path.
"""

from __future__ import annotations

import pytest

from repro.routing.cache import RouteCache, topology_signature
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


class TestRouteCacheBatch:
    def test_routes_for_uses_batched_builder(self):
        topo = random_irregular(10, seed=4)
        cache = RouteCache(max_entries=4)
        _orient, pairs = cache.routes_for(topo, "itb")
        oracle = itb_oracle.all_pairs_pairwise(
            ItbRouter(topo, build_orientation(topo)))
        assert pairs == oracle

    def test_routes_from_counts_batch_hits(self):
        topo = random_irregular(10, seed=4)
        cache = RouteCache(max_entries=4)
        src = topo.hosts()[0]

        # Cold: a miss, no batch hit.
        _o, routes = cache.routes_from(topo, "updown", src)
        assert cache.stats()["batch_hits"] == 0
        assert cache.stats()["misses"] == 1

        # Warm per-source entry: a batch hit.
        _o, again = cache.routes_from(topo, "updown", src)
        assert again == routes
        assert cache.stats()["batch_hits"] == 1

        # A warm full table also serves per-source slices as batch hits.
        _o, pairs = cache.routes_for(topo, "updown")
        _o, sliced = cache.routes_from(topo, "updown", src)
        assert cache.stats()["batch_hits"] == 2
        assert sliced == {d: r for (s, d), r in pairs.items() if s == src}

    def test_batch_hits_in_reset(self):
        cache = RouteCache(max_entries=2)
        topo = random_irregular(8, seed=1)
        cache.routes_from(topo, "updown", topo.hosts()[0])
        cache.routes_from(topo, "updown", topo.hosts()[0])
        assert cache.batch_hits == 1
        cache.reset_stats()
        assert cache.batch_hits == 0


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

    def test_signature_memoized(self):
        topo = random_irregular(8, seed=6)
        a = topology_signature(topo)
        assert "topology_signature" in topo._derived
        assert topology_signature(topo) == a

"""Benchmark: batched all-pairs route construction.

The scale-study tentpole: one phase-aware BFS tree per source switch
replaces a BFS per host pair, and the ITB router legalizes from
per-source Dijkstra trees instead of per-pair searches.  The per-pair
code paths are kept as test oracles (``all_pairs_pairwise`` in
``tests/oracles/``), so the guard can assert both the speedup *and*
bit-identical routes on every run — the batched trees are proven, not
trusted.
"""

from __future__ import annotations

import time

from repro.routing.itb import ItbRouter
from repro.routing.spanning_tree import build_orientation
from repro.routing.updown import UpDownRouter
from repro.topology.generators import random_irregular_scaled
from tests.oracles import itb as itb_oracle
from tests.oracles import updown as updown_oracle

#: The 128-switch irregular fabric of the scale study's middle rung.
_N_SWITCHES = 128
_SEED = 7


def _bench_topology():
    return random_irregular_scaled(_N_SWITCHES, seed=_SEED)


def test_bench_allpairs_build(benchmark, bench_headline):
    """Batched up*/down* all-pairs must be >= 5x the per-pair oracle
    at 128 switches, with byte-identical routes in identical order."""
    topo = _bench_topology()
    orientation = build_orientation(topo)

    def batched():
        return UpDownRouter(topo, orientation).all_pairs()

    routes = benchmark(batched)

    t0 = time.perf_counter()
    fast_routes = batched()
    fast = time.perf_counter() - t0

    t0 = time.perf_counter()
    oracle = updown_oracle.all_pairs_pairwise(UpDownRouter(topo, orientation))
    slow = time.perf_counter() - t0

    assert list(fast_routes) == list(oracle)  # same insertion order
    assert fast_routes == oracle  # same routes, byte for byte
    assert routes == oracle

    ratio = slow / fast
    bench_headline["speedup_ratio"] = round(ratio, 3)
    bench_headline["batched_s"] = round(fast, 6)
    bench_headline["pairwise_s"] = round(slow, 6)
    bench_headline["n_pairs"] = len(oracle)
    assert ratio >= 5.0, (
        f"batched all-pairs only {ratio:.2f}x over the per-pair oracle"
        f" (batched {fast * 1e3:.0f} ms, pairwise {slow * 1e3:.0f} ms)"
    )


def test_bench_itb_allpairs_build(benchmark, bench_headline):
    """Batched ITB legalization vs its per-pair oracle, same fabric.

    Identity guard, not a speedup gate: the ITB wins came from
    topology-level memoization (shortest-DAG children, the port
    table), which speeds the per-pair oracle just as much, so batched
    vs pairwise on a warm topology is near parity.  The guard asserts
    the batched trees produce byte-identical routes and are not
    meaningfully slower than the per-pair path.
    """
    topo = _bench_topology()
    orientation = build_orientation(topo)

    def batched():
        return ItbRouter(topo, orientation).all_pairs()

    routes = benchmark(batched)

    t0 = time.perf_counter()
    fast_routes = batched()
    fast = time.perf_counter() - t0

    t0 = time.perf_counter()
    oracle = itb_oracle.all_pairs_pairwise(ItbRouter(topo, orientation))
    slow = time.perf_counter() - t0

    assert list(fast_routes) == list(oracle)
    assert fast_routes == oracle
    assert routes == oracle

    ratio = slow / fast
    bench_headline["speedup_ratio"] = round(ratio, 3)
    bench_headline["batched_s"] = round(fast, 6)
    bench_headline["pairwise_s"] = round(slow, 6)
    assert ratio >= 0.8, (
        f"batched ITB all-pairs regressed to {ratio:.2f}x of the"
        f" per-pair oracle (batched {fast * 1e3:.0f} ms,"
        f" pairwise {slow * 1e3:.0f} ms)"
    )

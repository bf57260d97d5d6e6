"""Hop-by-hop ITB route construction and reselection (test oracle).

:func:`reference_route` cuts a ``(switch_path, splits)`` plan at its
violation switches, asks for one in-transit host per cut, resolves
every port byte with ``Topology.port_toward`` one hop at a time, and
checks every segment against the up*/down* rule — route construction
without switch-pair templates or route memos.
:class:`ReferenceReselector` runs the reselection pass on top of it over
its own copy of the route tables.

:func:`itb_route_pairwise` plans one host pair with no shared state:
it re-runs minimal-path enumeration and the legalization search
(:func:`shortest_legalizable_pairwise`, an early-exit Dijkstra) for
every pair, with no switch-pair template memo and no per-source trees.
:func:`all_pairs_pairwise` builds the all-pairs table from it for
comparison with ``ItbRouter.all_pairs``, host-policy call order
included.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.routing.minimal import all_shortest_switch_paths
from repro.routing.routes import Direction, ItbRoute, RouteError, SourceRoute
from tests.oracles.updown import route_pairwise


def plan_of(route: ItbRoute) -> tuple[list[int], list[int]]:
    """The ``(switch_path, splits)`` plan an ITB route was cut from."""
    path = list(route.segments[0].switch_path)
    splits: list[int] = []
    for seg in route.segments[1:]:
        splits.append(len(path) - 1)
        path.extend(seg.switch_path[1:])
    return path, splits


def reference_route(
    topo,
    orientation,
    src_host: int,
    dst_host: int,
    switch_path: list[int],
    splits: list[int],
    choose: Callable[[int], int],
) -> ItbRoute:
    """Cut the plan and build every segment hop by hop.

    ``choose(switch)`` returns the in-transit host of one cut; it is
    called once per cut, in path order.
    """
    segments = []
    entry = src_host
    start = 0
    cut_points = list(splits) + [len(switch_path) - 1]
    for j, cut in enumerate(cut_points):
        sub_path = switch_path[start:cut + 1]
        if j == len(cut_points) - 1:
            exit_host = dst_host
        else:
            exit_host = choose(switch_path[cut])
        ports = [topo.port_toward(a, b) for a, b in zip(sub_path, sub_path[1:])]
        ports.append(topo.port_toward(sub_path[-1], exit_host))
        if not orientation.is_valid_updown_path(topo, list(sub_path)):
            raise RouteError(f"segment {sub_path} is not up*/down*")
        segments.append(SourceRoute(src=entry, dst=exit_host,
                                    ports=tuple(ports),
                                    switch_path=tuple(sub_path)))
        entry = exit_host
        start = cut
    return ItbRoute(tuple(segments))


class ReferenceReselector:
    """Reselection over a private copy of a network's route tables.

    Plans come from the routes stamped at construction (the first ITB
    route seen per switch pair, in table order).  Each pass visits the
    multi-segment routes in sorted (src, dst) order, calls ``selector``
    once per cut through :func:`reference_route`, and replaces a route
    only when the rebuilt one differs.
    """

    def __init__(self, net, selector) -> None:
        self.topo = net.topo
        self.orientation = net.orientation
        self.selector = selector
        self.pairs_changed = 0
        self.tables = {src: dict(net.nics[src].route_table.entries)
                       for src in sorted(net.nics)}
        self.plans: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        for src, entries in self.tables.items():
            for dst in sorted(entries):
                if len(entries[dst].segments) > 1:
                    key = (self.topo.switch_of(src), self.topo.switch_of(dst))
                    self.plans.setdefault(key, plan_of(entries[dst]))

    def reselect(self) -> int:
        """One pass; returns the number of routes replaced."""
        topo, selector = self.topo, self.selector
        selector.begin_epoch()
        changed = 0
        for src, entries in self.tables.items():
            for dst in sorted(entries):
                current = entries[dst]
                if len(current.segments) <= 1:
                    continue
                path, splits = self.plans[(topo.switch_of(src),
                                           topo.switch_of(dst))]
                route = reference_route(
                    topo, self.orientation, src, dst, path, splits,
                    lambda switch: selector(topo, switch, src, dst))
                if route != current:
                    entries[dst] = route
                    changed += 1
        self.pairs_changed += changed
        return changed


def all_pairs_pairwise(router) -> dict[tuple[int, int], ItbRoute]:
    """ITB routes for every ordered host pair, planned pair by pair."""
    hosts = router.topo.hosts()
    return {
        (s, d): itb_route_pairwise(router, s, d)
        for s in hosts
        for d in hosts
        if s != d
    }


def itb_route_pairwise(router, src_host: int, dst_host: int) -> ItbRoute:
    """Per-pair ITB route of ``router``, with no memo or shared tree.

    Same preference order as ``ItbRouter.itb_route``: minimal length
    with fewest ITBs; then (with ``allow_longer``) the shortest
    legalizable path; then the plain up*/down* route.
    """
    topo = router.topo
    if src_host == dst_host:
        raise RouteError("source and destination host are the same")
    s_src, s_dst = topo.switch_of(src_host), topo.switch_of(dst_host)

    best: Optional[tuple[int, list[int], list[int]]] = None
    for path in all_shortest_switch_paths(topo, s_src, s_dst,
                                          limit=router.max_paths):
        splits = router.split_points(path)
        if not all(topo.hosts_on(path[i]) for i in splits):
            continue
        if best is None or len(splits) < best[0]:
            best = (len(splits), path, splits)
        if best[0] == 0:
            break
    found: Optional[tuple[list[int], list[int]]] = None
    if best is not None:
        found = best[1], best[2]
    elif router.allow_longer:
        found = shortest_legalizable_pairwise(router, s_src, s_dst)
    if found is not None:
        return router._route(src_host, dst_host,
                             router._make_template(*found))

    return ItbRoute((route_pairwise(router._updown, src_host, dst_host),))


def shortest_legalizable_pairwise(
    router, s_src: int, s_dst: int
) -> Optional[tuple[list[int], list[int]]]:
    """BFS over (switch, direction-phase) with host-reset transitions.

    State space: ``(switch, phase)`` where phase 0 = may still go UP,
    1 = DOWN taken.  At any switch with a host, the phase may reset to
    0 at the cost of one ITB; the search orders by (hops, itbs)
    lexicographic cost with a Dijkstra-like expansion, giving the
    shortest path legalizable with ITBs of any (possibly super-minimal)
    length, and stops at the destination.
    """
    topo, orient = router.topo, router.orientation
    start = (s_src, 0)
    # cost = (hops, itbs); parent map reconstructs path and splits
    dist: dict[tuple[int, int], tuple[int, int]] = {start: (0, 0)}
    parent: dict[tuple[int, int], tuple[tuple[int, int], bool]] = {}
    heap: list[tuple[int, int, tuple[int, int]]] = [(0, 0, start)]
    goal: Optional[tuple[int, int]] = None
    while heap:
        hops, itbs, state = heapq.heappop(heap)
        if dist.get(state, (1 << 30, 1 << 30)) < (hops, itbs):
            continue
        u, phase = state
        if u == s_dst:
            goal = state
            break
        # ITB reset (no hop cost, +1 itb) when the switch has a host.
        if phase == 1 and topo.hosts_on(u):
            nstate = (u, 0)
            ncost = (hops, itbs + 1)
            if ncost < dist.get(nstate, (1 << 30, 1 << 30)):
                dist[nstate] = ncost
                parent[nstate] = (state, True)
                heapq.heappush(heap, (hops, itbs + 1, nstate))
        for _port, v, link in topo.switch_neighbors(u):
            d = orient.direction(link.link_id, u, v)
            if phase == 1 and d is Direction.UP:
                continue
            nphase = 1 if d is Direction.DOWN else phase
            nstate = (v, nphase)
            ncost = (hops + 1, itbs)
            if ncost < dist.get(nstate, (1 << 30, 1 << 30)):
                dist[nstate] = ncost
                parent[nstate] = (state, False)
                heapq.heappush(heap, (hops + 1, itbs, nstate))
    if goal is None:
        return None
    # Reconstruct switch path and split indices.
    rev_states: list[tuple[tuple[int, int], bool]] = []
    state = goal
    while state != start:
        prev, was_reset = parent[state]
        rev_states.append((state, was_reset))
        state = prev
    path = [s_src]
    splits: list[int] = []
    for (st, was_reset) in reversed(rev_states):
        if was_reset:
            splits.append(len(path) - 1)
        else:
            path.append(st[0])
    return path, splits

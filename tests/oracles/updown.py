"""Per-pair up*/down* route search (test oracle).

:func:`switch_route_pairwise` runs one early-exit BFS over
``(switch, phase)`` states per switch pair, reading link directions
from the orientation one link at a time — the search
``UpDownRouter.switch_tree`` batches into one full BFS per source
switch.  Both expand neighbours in the same order, so every path they
return must be identical; :func:`all_pairs_pairwise` builds the
all-pairs table from it for comparison with ``UpDownRouter.all_pairs``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.routing.routes import Direction, RouteError, SourceRoute

__all__ = ["all_pairs_pairwise", "route_pairwise", "switch_route_pairwise"]

_PHASE_UP = 0   # still allowed to take UP hops
_PHASE_DOWN = 1  # a DOWN hop was taken; only DOWN hops remain legal


def switch_route_pairwise(router, src_switch: int, dst_switch: int) -> list[int]:
    """Shortest valid up*/down* switch path by a per-pair BFS.

    Deterministic: among equal-length candidates, BFS explores
    neighbors in ascending id order, preferring UP hops first (the
    classical mapper bias toward climbing early).
    """
    topo, orient = router.topo, router.orientation
    if not topo.is_switch(src_switch) or not topo.is_switch(dst_switch):
        raise RouteError("switch_route endpoints must be switches")
    if src_switch == dst_switch:
        return [src_switch]

    start = (src_switch, _PHASE_UP)
    prev: dict[tuple[int, int], tuple[int, int]] = {}
    seen = {start}
    q = deque([start])
    goal: Optional[tuple[int, int]] = None
    while q and goal is None:
        state = q.popleft()
        u, phase = state
        steps = []
        for _port, v, link in topo.switch_neighbors(u):
            d = orient.direction(link.link_id, u, v)
            if phase == _PHASE_DOWN and d is Direction.UP:
                continue
            nxt_phase = _PHASE_DOWN if d is Direction.DOWN else phase
            steps.append((d is Direction.DOWN, v, nxt_phase))
        # UP hops first, then by neighbor id: deterministic tie-break.
        for _down, v, nxt_phase in sorted(steps):
            nstate = (v, nxt_phase)
            if nstate in seen:
                continue
            seen.add(nstate)
            prev[nstate] = state
            if v == dst_switch:
                goal = nstate
                break
            q.append(nstate)

    if goal is None:
        raise RouteError(
            f"no valid up*/down* path {src_switch} -> {dst_switch}"
        )
    path = [goal[0]]
    state = goal
    while state != start:
        state = prev[state]
        path.append(state[0])
    path.reverse()
    return path


def route_pairwise(router, src_host: int, dst_host: int) -> SourceRoute:
    """Source route along the per-pair BFS path."""
    topo = router.topo
    s_src = topo.switch_of(src_host)
    s_dst = topo.switch_of(dst_host)
    return router.route_via(
        src_host, dst_host, switch_route_pairwise(router, s_src, s_dst)
    )


def all_pairs_pairwise(router) -> dict[tuple[int, int], SourceRoute]:
    """Routes for every ordered host pair, one BFS per pair."""
    hosts = router.topo.hosts()
    out: dict[tuple[int, int], SourceRoute] = {}
    for s in hosts:
        for d in hosts:
            if s != d:
                out[(s, d)] = route_pairwise(router, s, d)
    return out

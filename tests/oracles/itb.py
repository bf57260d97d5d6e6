"""Hop-by-hop ITB route construction and reselection (test oracle).

:func:`reference_route` cuts a ``(switch_path, splits)`` plan at its
violation switches, asks for one in-transit host per cut, resolves
every port byte with ``Topology.port_toward`` one hop at a time, and
checks every segment against the up*/down* rule — route construction
without switch-pair templates or route memos.
:class:`ReferenceReselector` runs the reselection pass on top of it over
its own copy of the route tables.
"""

from __future__ import annotations

from typing import Callable

from repro.routing.routes import ItbRoute, RouteError, SourceRoute


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

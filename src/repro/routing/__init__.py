"""Routing for source-routed irregular networks.

Implements the routing machinery the paper builds on:

* BFS spanning tree + up/down link orientation
  (:mod:`repro.routing.spanning_tree`),
* up*/down* shortest *valid* source routes (:mod:`repro.routing.updown`),
* true minimal routes (:mod:`repro.routing.minimal`),
* **In-Transit Buffer routes** — minimal routes split into valid
  up*/down* segments at in-transit hosts (:mod:`repro.routing.itb`),
* pluggable, congestion-aware in-transit host selection — static /
  random / round-robin / least-loaded / EWMA policies over a
  duck-typed occupancy view (:mod:`repro.routing.selectors`),
* channel-dependency-graph deadlock checking (:mod:`repro.routing.cdg`)
  on :class:`~repro.routing.cdg.DependencyGraph`, an insertion-ordered
  adjacency dict; its ``find_cycle()`` returns the first cycle a
  depth-first search finds when it visits nodes and successors in
  insertion order, or ``None`` for a deadlock-free routing,
* per-host route tables as stamped into NIC SRAM by the mapper
  (:mod:`repro.routing.tables`).
"""

from repro.routing.routes import (
    Direction,
    ItbRoute,
    RouteError,
    SourceRoute,
)
from repro.routing.spanning_tree import UpDownOrientation, build_orientation
from repro.routing.updown import UpDownRouter
from repro.routing.minimal import MinimalRouter, all_shortest_switch_paths
from repro.routing.itb import ItbRouter
from repro.routing.cdg import (
    DependencyGraph,
    channel_dependency_graph,
    find_dependency_cycle,
    is_deadlock_free,
)
from repro.routing.tables import RouteTable, build_route_tables
from repro.routing.selectors import (
    SELECTOR_NAMES,
    CongestionView,
    MapCongestionView,
    Selector,
    make_selector,
)

__all__ = [
    "CongestionView",
    "DependencyGraph",
    "Direction",
    "ItbRoute",
    "ItbRouter",
    "MapCongestionView",
    "MinimalRouter",
    "RouteError",
    "RouteTable",
    "SELECTOR_NAMES",
    "Selector",
    "SourceRoute",
    "UpDownOrientation",
    "UpDownRouter",
    "all_shortest_switch_paths",
    "build_orientation",
    "build_route_tables",
    "channel_dependency_graph",
    "find_dependency_cycle",
    "is_deadlock_free",
    "make_selector",
]

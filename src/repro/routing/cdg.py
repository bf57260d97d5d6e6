"""Channel dependency graph (CDG) deadlock analysis.

A *channel* is a directed use of a physical cable.  A routing function
is deadlock-free (for wormhole switching without virtual channels) iff
its channel dependency graph is acyclic [Dally & Seitz].  The ITB
mechanism's key property is that **ejection breaks dependencies**: a
packet ejected at an in-transit host releases its channels, so no
dependency edge is added between the last channel of one segment and
the first channel of the next.

This module builds the CDG for a set of routes (plain or ITB) and
checks acyclicity — used by tests to prove both that up*/down* and ITB
routings are deadlock-free and that *unsplit* minimal routing is not.

The graph is a :class:`DependencyGraph`: an insertion-ordered
adjacency dict (node -> successors, themselves an insertion-ordered
dict used as a set).  Nodes and each node's successors keep the order
in which the routes first used them.  :meth:`DependencyGraph.find_cycle`
is an iterative three-colour depth-first search that starts from the
nodes in insertion order and follows successors in insertion order;
it returns the *first* cycle that search closes, as its nodes in
dependency order, or ``None`` when the graph is acyclic.

Virtual-channel lanes
---------------------
With ``n_lanes > 1`` the analysis operates on *lane* nodes
``(link_id, direction, lane)`` — the resource a worm actually blocks
on in a multi-lane fabric (:mod:`repro.network.fabric`).  The lane a
segment uses at each hop depends on the fabric's lane policy:

* ``"escape"`` assigns lanes by the dateline walk shared with
  :class:`repro.network.lanes.EscapeLanePolicy`, so the laned CDG here
  verifies exactly the assignment the simulator will use.  The walk
  is deterministic per segment, so acyclicity of this graph *is* the
  deadlock-freedom proof (provided no route needs more lanes than
  configured — check :func:`lanes_required`).
* ``"fixed"`` and ``"roundrobin"`` pick one lane per channel per
  launch.  Any such static-per-flight assignment is deadlock-free iff
  the *collapsed* channel-level CDG is acyclic: a cycle among lane
  nodes projects onto a closed walk among channel nodes (consecutive
  route channels are always distinct links), which an acyclic channel
  graph cannot contain.  These policies therefore verify on the
  ``n_lanes == 1`` graph.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Union

from repro.routing.routes import ItbRoute, SourceRoute
from repro.topology.graph import Topology

__all__ = [
    "DependencyGraph",
    "channel_dependency_graph",
    "find_dependency_cycle",
    "is_deadlock_free",
    "lanes_required",
]

Channel = tuple[int, int]  # (link_id, direction): direction 0 = a->b end
RouteLike = Union[SourceRoute, ItbRoute]


class DependencyGraph:
    """A directed graph kept as an insertion-ordered adjacency dict.

    ``succ`` maps every node to a dict whose keys are the node's
    successors (the values are unused), both in first-insertion order;
    parallel edges collapse into one.
    """

    __slots__ = ("succ",)

    def __init__(self) -> None:
        self.succ: dict[Hashable, dict[Hashable, None]] = {}

    def add_edge(self, a: Hashable, b: Hashable) -> None:
        """Add the dependency ``a -> b``, adding either node if new."""
        succ = self.succ
        out = succ.get(a)
        if out is None:
            out = succ[a] = {}
        out[b] = None
        if b not in succ:
            succ[b] = {}

    @property
    def nodes(self):
        """The nodes, in insertion order (a live keys view)."""
        return self.succ.keys()

    def number_of_nodes(self) -> int:
        """How many distinct nodes the graph holds."""
        return len(self.succ)

    def number_of_edges(self) -> int:
        """How many distinct directed edges the graph holds."""
        return sum(map(len, self.succ.values()))

    def find_cycle(self) -> Optional[list]:
        """One directed cycle as its nodes in order, or None if acyclic.

        Iterative three-colour depth-first search: a node is white
        until reached, grey while on the current path, black once all
        its successors are finished.  Meeting a grey node closes a
        cycle; the result runs from that node along the path to the
        node whose edge reached it.  Roots and successors are visited
        in insertion order, so the cycle returned is the first one the
        search finds.
        """
        succ = self.succ
        black: set = set()
        for root in succ:
            if root in black:
                continue
            path = [root]
            grey = {root: 0}  # node -> its index on path
            stack = [iter(succ[root])]
            while stack:
                for nxt in stack[-1]:
                    if nxt in grey:
                        return path[grey[nxt]:]
                    if nxt not in black:
                        grey[nxt] = len(path)
                        path.append(nxt)
                        stack.append(iter(succ[nxt]))
                        break
                else:
                    stack.pop()
                    node = path.pop()
                    del grey[node]
                    black.add(node)
        return None


def _segment_channels(topo: Topology, seg: SourceRoute) -> list[Channel]:
    """Directed channels used by one source-route segment, in order.

    Includes the injection (host -> first switch) and ejection/delivery
    (last switch -> host) channels, since NIC links are real channels
    that the paper's Stop&Go flow control can block on.
    """
    channels: list[Channel] = []
    host_link = topo.host_link(seg.src)
    channels.append((host_link.link_id, host_link.direction_from(seg.src, 0)))
    current = seg.switch_path[0]
    for port in seg.ports:
        link = topo.link_at(current, port)
        if link is None:  # defensive; routes are validated at build time
            raise ValueError(f"route uses uncabled port {port} at {current}")
        channels.append((link.link_id, link.direction_from(current, port)))
        current, _far_port = link.far_end(current, port)
    return channels


def _segment_steps(topo: Topology,
                   seg: SourceRoute) -> list[tuple[int, int, bool]]:
    """Per-channel ``(from_node, to_node, is_switch_to_switch)`` walk,
    aligned with :func:`_segment_channels` — the input the escape-lane
    dateline walk needs (kept identical to the fabric's plan endpoints
    so static analysis and runtime assign the same lanes)."""
    steps: list[tuple[int, int, bool]] = [
        (seg.src, seg.switch_path[0], False)
    ]
    current = seg.switch_path[0]
    for port in seg.ports:
        link = topo.link_at(current, port)
        far, _far_port = link.far_end(current, port)
        steps.append((current, far,
                      topo.is_switch(current) and topo.is_switch(far)))
        current = far
    return steps


def iter_segments(route: RouteLike) -> Iterable[SourceRoute]:
    """The source-route segments of a plain or ITB route, in order."""
    if isinstance(route, ItbRoute):
        return route.segments
    return (route,)


def lanes_required(topo: Topology, routes: Iterable[RouteLike]) -> int:
    """Lanes the escape policy needs so no segment's walk is clamped.

    1 means every segment is descent-free; the ``vc-study`` experiment
    sizes its VC fabric with this so the static guarantee holds.
    """
    # Imported here (not at module top) to break the import cycle
    # routing -> network -> worm -> mcp -> routing.
    from repro.network.lanes import lanes_needed
    needed = 1
    for route in routes:
        for seg in iter_segments(route):
            needed = max(needed, lanes_needed(_segment_steps(topo, seg)))
    return needed


def channel_dependency_graph(
    topo: Topology, routes: Iterable[RouteLike],
    n_lanes: int = 1, lane_policy: str = "fixed",
) -> DependencyGraph:
    """Build the CDG: nodes are channels (lanes when ``n_lanes > 1``
    under the escape policy), edges are held-while-requesting pairs
    within a single segment.

    Segment boundaries (in-transit hosts) contribute **no** edge — the
    formal statement of the ITB mechanism's deadlock-freedom argument.
    Fixed and round-robin lane policies verify on the collapsed
    channel-level graph (see the module docstring for why that is
    sound for any per-launch static assignment).
    """
    laned = n_lanes > 1 and lane_policy == "escape"
    if laned:
        from repro.network.lanes import escape_lane_walk
    g = DependencyGraph()
    for route in routes:
        for seg in iter_segments(route):
            chans: list = _segment_channels(topo, seg)
            if laned:
                lanes = escape_lane_walk(_segment_steps(topo, seg), n_lanes)
                chans = [(link, direction, lane) for (link, direction), lane
                         in zip(chans, lanes)]
            # Every segment has an injection and a delivery channel, so
            # each channel enters the graph through an edge.
            for a, b in zip(chans, chans[1:]):
                g.add_edge(a, b)
    return g


def find_dependency_cycle(
    topo: Topology, routes: Iterable[RouteLike],
    n_lanes: int = 1, lane_policy: str = "fixed",
) -> Optional[list[Channel]]:
    """Return one dependency cycle, or None when the CDG is acyclic.

    The cycle is the first one :meth:`DependencyGraph.find_cycle`
    finds, as channels (or lanes) in dependency order.
    """
    return channel_dependency_graph(topo, routes, n_lanes=n_lanes,
                                    lane_policy=lane_policy).find_cycle()


def is_deadlock_free(
    topo: Topology, routes: Iterable[RouteLike],
    n_lanes: int = 1, lane_policy: str = "fixed",
) -> bool:
    """True iff the (lane-aware) channel dependency graph is acyclic.

    For the escape policy the answer is only a guarantee when
    ``lanes_required(topo, routes) <= n_lanes`` — a clamped walk
    leaves the dateline scheme, and this function checks the clamped
    assignment that would actually run.
    """
    return find_dependency_cycle(topo, routes, n_lanes=n_lanes,
                                 lane_policy=lane_policy) is None

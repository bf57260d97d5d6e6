"""Shortest *valid* up*/down* source routes.

The router searches the switch fabric with BFS over states
``(switch, phase)`` where ``phase`` records whether a DOWN hop has
already been taken (after which UP hops are forbidden).  This yields
the shortest legal up*/down* path for every pair — the routing the
Myrinet mapper computes, and the baseline the paper compares against.

Route construction is batch-first: :meth:`UpDownRouter.switch_tree`
runs ONE full phase-aware BFS per source switch and records, for every
destination, the first state enqueued at that switch plus the BFS
predecessor pointers.  Because the full traversal enqueues states in
exactly the same order as a per-pair early-exit BFS (``seen`` and
``prev`` are write-once, and the early exit only truncates a shared
prefix), reconstructing a path from the tree is byte-identical to the
per-pair search — which the tests keep as an oracle
(``tests/oracles/updown.py``).  All-pairs construction drops from
O(H²·E) to O(V·E).

Routes are *stamped* from per-switch-path templates: the inter-switch
port bytes of a switch path are resolved and walked (every byte must
land on the next switch of the path) once per path.  A *row* — the
template plus one destination host's verified exit port — is built
once per source switch and shared by every host on that switch, so
the routes of co-located sources hold one ``switch_path`` and one
``ports`` tuple per destination between them.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.routing.minimal import _switch_adjacency
from repro.routing.routes import Direction, ItbRoute, RouteError, SourceRoute
from repro.routing.spanning_tree import UpDownOrientation, build_orientation
from repro.topology.graph import Topology

__all__ = ["ExitPorts", "UpDownRouter", "hop_ports"]

_PHASE_UP = 0   # still allowed to take UP hops
_PHASE_DOWN = 1  # a DOWN hop was taken; only DOWN hops remain legal


def _port_target(topo: Topology, node: int, port: int) -> Optional[int]:
    """The node reached through ``port`` of ``node`` (None if uncabled)."""
    link = topo.link_at(node, port)
    return None if link is None else link.far_end(node, port)[0]


def hop_ports(topo: Topology, switch_path: Sequence[int]) -> tuple[int, ...]:
    """Output ports along ``switch_path``, each walked to the next switch.

    Raises :class:`RouteError` when a port byte does not lead to the
    switch the path names next — the deliverability check a template
    runs once on behalf of every host pair stamped from it.
    """
    ports = []
    for a, b in zip(switch_path, switch_path[1:]):
        port = topo.port_toward(a, b)
        if _port_target(topo, a, port) != b:
            raise RouteError(f"port {port} of switch {a} does not lead to {b}")
        ports.append(port)
    return tuple(ports)


class ExitPorts(dict):
    """``switch -> {attached host: exit port}``, walked per switch once.

    Filled on first use of a switch: every port is checked to deliver to
    its host, so the last byte of a stamped route is verified without
    walking the route again.
    """

    def __init__(self, topo: Topology) -> None:
        super().__init__()
        self.topo = topo

    def __missing__(self, switch: int) -> dict[int, int]:
        topo = self.topo
        exits = {}
        for host in topo.hosts_on(switch):
            port = topo.port_toward(switch, host)
            if _port_target(topo, switch, port) != host:
                raise RouteError(
                    f"port {port} of switch {switch} does not lead to {host}")
            exits[host] = port
        self[switch] = exits
        return exits

    def port(self, switch: int, host: int) -> int:
        """The exit port from ``switch`` to an attached ``host``."""
        port = self[switch].get(host)
        if port is None:
            raise RouteError(f"host {host} is not attached to switch {switch}")
        return port


class _SourceTree:
    """Per-source BFS tree: predecessor pointers plus, for every
    reachable switch, the first ``(switch, phase)`` state the BFS
    enqueued there (= the goal state the per-pair search would stop at).
    """

    __slots__ = ("prev", "goal")

    def __init__(self, prev: dict, goal: dict) -> None:
        self.prev = prev
        self.goal = goal


class UpDownRouter:
    """Computes shortest valid up*/down* routes on a topology.

    Parameters
    ----------
    topo:
        The network.
    orientation:
        Optional precomputed :class:`UpDownOrientation`; computed with
        the default root policy when omitted.
    """

    name = "updown"

    def __init__(
        self, topo: Topology, orientation: Optional[UpDownOrientation] = None
    ) -> None:
        self.topo = topo
        self.orientation = orientation or build_orientation(topo)
        # src_switch -> _SourceTree; valid as long as the topology and
        # orientation are unchanged (routers are rebuilt on mutation).
        self._trees: dict[int, _SourceTree] = {}
        # switch path -> (path tuple, inter-switch ports), validated once.
        self._templates: dict[tuple[int, ...],
                              tuple[tuple[int, ...], tuple[int, ...]]] = {}
        # src_switch -> {dst host: (switch path, ports + exit port)}.
        self._rows: dict[int, dict[int, tuple[tuple[int, ...],
                                              tuple[int, ...]]]] = {}
        self._exits = ExitPorts(topo)

    # ------------------------------------------------------------------
    # Batched per-source construction (the hot path)

    def switch_tree(self, src_switch: int) -> _SourceTree:
        """Full phase-aware BFS from ``src_switch``, memoized.

        One O(E) traversal serves every destination: the expansion order
        is that of a per-pair early-exit BFS (same neighbor sort, same
        seen-at-enqueue rule), so the first state enqueued at each
        switch is exactly the goal state the per-pair search would
        return, and the predecessor chain above it is the same prefix.
        """
        tree = self._trees.get(src_switch)
        if tree is not None:
            return tree
        topo = self.topo
        if not topo.is_switch(src_switch):
            raise RouteError("switch_tree source must be a switch")
        adj = _switch_adjacency(topo)
        table = self.orientation.pair_direction_table(topo)

        start = (src_switch, _PHASE_UP)
        prev: dict[tuple[int, int], tuple[int, int]] = {}
        seen = {start}
        goal: dict[int, tuple[int, int]] = {src_switch: start}
        q = deque([start])
        while q:
            state = q.popleft()
            u, phase = state
            steps = []
            for v in adj[u]:
                d = table[(u, v)]
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
                if v not in goal:
                    goal[v] = nstate
                q.append(nstate)

        tree = _SourceTree(prev, goal)
        self._trees[src_switch] = tree
        return tree

    def _path_from_tree(
        self, tree: _SourceTree, src_switch: int, dst_switch: int
    ) -> list[int]:
        if src_switch == dst_switch:
            return [src_switch]
        state = tree.goal.get(dst_switch)
        if state is None:
            raise RouteError(
                f"no valid up*/down* path {src_switch} -> {dst_switch}"
            )
        start = (src_switch, _PHASE_UP)
        path = [state[0]]
        while state != start:
            state = tree.prev[state]
            path.append(state[0])
        path.reverse()
        return path

    def routes_from(
        self,
        src_host: int,
        dests: Optional[list[int]] = None,
        strict: bool = True,
    ) -> dict[int, SourceRoute]:
        """Routes from one host to every destination host, off one tree.

        Each route is the source switch's row for its destination
        (:meth:`_row`), so hosts on one switch share every row.  With
        ``strict=False`` unreachable destinations are silently skipped
        (the keep-stale semantics fault remap relies on).
        """
        topo = self.topo
        s_src = topo.switch_of(src_host)
        row = self._row
        out: dict[int, SourceRoute] = {}
        for d in (topo.hosts() if dests is None else dests):
            if d == src_host:
                continue
            try:
                path, ports = row(s_src, d)
            except (RouteError, KeyError):
                if strict:
                    raise
                continue
            out[d] = SourceRoute(src_host, d, ports, path)
        return out

    # ------------------------------------------------------------------

    def switch_route(self, src_switch: int, dst_switch: int) -> list[int]:
        """Shortest valid up*/down* switch path (inclusive endpoints).

        Read off the memoized per-source tree (:meth:`switch_tree`).
        Deterministic: among equal-length candidates, BFS explores
        neighbors in ascending id order, preferring UP hops first (the
        classical mapper bias toward climbing early).
        """
        return self._path_from_tree(self.switch_tree(src_switch),
                                    src_switch, dst_switch)

    def route(self, src_host: int, dst_host: int) -> SourceRoute:
        """Source route between two hosts."""
        return self.route_via(src_host, dst_host, None)

    def route_via(
        self,
        src_host: int,
        dst_host: int,
        switch_path: Optional[list[int]],
    ) -> SourceRoute:
        """Stamp a :class:`SourceRoute` along an explicit or computed
        switch path, emitting one output-port byte per switch."""
        topo = self.topo
        if src_host == dst_host:
            raise RouteError("source and destination host are the same")
        s_src = topo.switch_of(src_host)
        s_dst = topo.switch_of(dst_host)
        if switch_path is None:
            path, ports = self._row(s_src, dst_host)
        else:
            if switch_path[0] != s_src or switch_path[-1] != s_dst:
                raise RouteError("switch_path endpoints do not match hosts")
            path, ports = self._template(switch_path)
            ports += (self._exits.port(s_dst, dst_host),)
        return SourceRoute(src_host, dst_host, ports, path)

    def itb_route(self, src_host: int, dst_host: int) -> ItbRoute:
        """Uniform interface with :class:`ItbRouter`: a single segment."""
        return ItbRoute((self.route(src_host, dst_host),))

    # ------------------------------------------------------------------

    def _template(
        self, switch_path: Sequence[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(path, inter-switch ports)`` of a switch path, memoized.

        Built once per path: the path must obey the up*/down* rule under
        this router's orientation and every port byte must walk to the
        next switch (:func:`hop_ports`).
        """
        key = tuple(switch_path)
        template = self._templates.get(key)
        if template is None:
            if not self.orientation.is_valid_updown_path(self.topo, key):
                raise RouteError(f"switch path {list(key)} is not up*/down*")
            template = (key, hop_ports(self.topo, key))
            self._templates[key] = template
        return template

    def _row(
        self, s_src: int, dst_host: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(switch path, ports + exit port)`` from ``s_src`` to a host:
        the path's template plus the verified exit port.

        Memoized per source switch, so every host on ``s_src`` shares
        one row per destination.
        """
        rows = self._rows.get(s_src)
        if rows is None:
            rows = self._rows[s_src] = {}
        row = rows.get(dst_host)
        if row is None:
            s_dst = self.topo.switch_of(dst_host)
            path, ports = self._template(self.switch_route(s_src, s_dst))
            row = rows[dst_host] = (
                path, ports + (self._exits.port(s_dst, dst_host),))
        return row

    def is_valid(self, route: SourceRoute) -> bool:
        """Check the up*/down* rule over the route's switch path."""
        return self.orientation.is_valid_updown_path(
            self.topo, list(route.switch_path)
        )

    def all_pairs(self) -> dict[tuple[int, int], SourceRoute]:
        """Routes for every ordered host pair (the mapper's job).

        Batched: one BFS tree per source switch, shared across every
        destination.
        """
        hosts = self.topo.hosts()
        out: dict[tuple[int, int], SourceRoute] = {}
        for s in hosts:
            routes = self.routes_from(s)
            for d in hosts:
                if s != d:
                    out[(s, d)] = routes[d]
        return out

    def itb_all_pairs(self) -> dict[tuple[int, int], ItbRoute]:
        """Batched all-pairs in the single-segment ITB wrapper."""
        return {pair: ItbRoute((r,))
                for pair, r in self.all_pairs().items()}

"""In-Transit Buffer routing: the paper's core contribution.

An invalid minimal path — one containing a down->up transition — is
legalized by *ejecting* the packet at a host attached to the switch
where the violation occurs and re-injecting it from there, splitting
the path into valid up*/down* segments (paper Figure 1).

The router works in two stages:

1. Enumerate minimal switch paths between the endpoints and pick one
   whose violation switches all carry at least one attached host
   (candidate in-transit hosts).
2. Split the chosen path at those switches, producing an
   :class:`~repro.routing.routes.ItbRoute` whose every segment passes
   the up*/down* validity check.

When no minimal path can be legalized (some violating switch has no
host), the router either falls back to the plain up*/down* route or —
with ``allow_longer=True`` — searches for the shortest *legalizable*
path of any length.

Each switch pair's plan is turned once into a :data:`Template` — the
cut segments with their port bytes resolved and validated — and every
host pair is *stamped* from it: the host policy picks one in-transit
host per cut, and stamping adds only the exit-host ports.  Route parts
are stored once per router: a sub-path is interned and validated once
however many plans cut it out, and a segment is stamped once per
(entry host, exit host, sub-path), so every pair that leaves one host
for the same in-transit host along the same sub-path holds the same
:class:`~repro.routing.routes.SourceRoute`.

In-transit host selection within a switch is pluggable (policy
callable), since the paper's follow-ups study load-aware placement.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.routing.minimal import _switch_adjacency, all_shortest_switch_paths
from repro.routing.routes import Direction, ItbRoute, RouteError, SourceRoute
from repro.routing.spanning_tree import UpDownOrientation, build_orientation
from repro.routing.updown import UpDownRouter, hop_ports
from repro.topology.graph import Topology

__all__ = ["ItbRouter", "Template", "first_host_policy", "round_robin_policy"]


HostPolicy = Callable[[Topology, int, int, int], int]
"""(topo, switch, src_host, dst_host) -> chosen in-transit host id."""

Template = tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]
"""One ``(sub_path, inter-switch ports, cut switch)`` triple per segment.

Every ``sub_path`` obeys the up*/down* rule and every port byte walks
to the next switch of its ``sub_path``; the last segment's cut switch
is the destination switch.  ``sub_path`` and ``ports`` are the router's
interned tuples, shared by every template that cuts the same
sub-path."""


def first_host_policy(topo: Topology, switch: int, _src: int, _dst: int) -> int:
    """Pick the lowest-id host on the switch (deterministic default)."""
    hosts = topo.hosts_on(switch)
    if not hosts:
        raise RouteError(f"switch {switch} has no attached host for an ITB")
    return hosts[0]


class round_robin_policy:
    """Rotate in-transit duty over a switch's hosts.

    Spreads the ejection/re-injection load over all hosts of a switch —
    the simplest of the load-aware placements the paper's future work
    motivates.  Stateful: each router owns one instance.
    """

    def __init__(self) -> None:
        self._counters: dict[int, int] = {}

    def __call__(self, topo: Topology, switch: int, _src: int, _dst: int) -> int:
        hosts = topo.hosts_on(switch)
        if not hosts:
            raise RouteError(f"switch {switch} has no attached host for an ITB")
        k = self._counters.get(switch, 0)
        self._counters[switch] = k + 1
        return hosts[k % len(hosts)]


class ItbRouter:
    """Minimal routing legalized with in-transit buffers.

    Parameters
    ----------
    topo:
        The network.
    orientation:
        Up*/down* orientation shared with the baseline router (so both
        routings agree on link directions, as on a real mapper).
    host_policy:
        In-transit host chooser per violation switch.
    max_paths:
        Cap on enumerated minimal paths per pair before giving up on
        the minimal length.
    allow_longer:
        When the minimal length cannot be legalized, search longer
        paths (still preferring fewest switch hops, then fewest ITBs)
        instead of falling back to plain up*/down*.
    """

    name = "itb"

    def __init__(
        self,
        topo: Topology,
        orientation: Optional[UpDownOrientation] = None,
        host_policy: HostPolicy = first_host_policy,
        max_paths: int = 64,
        allow_longer: bool = True,
    ) -> None:
        self.topo = topo
        self.orientation = orientation or build_orientation(topo)
        self.host_policy = host_policy
        self.max_paths = max_paths
        self.allow_longer = allow_longer
        self._updown = UpDownRouter(topo, self.orientation)
        self._exits = self._updown._exits
        # (s_src, s_dst) -> Template | None (None: plain up*/down*).
        # Templates never invoke host_policy (only _route does), so
        # memoizing them is invisible to stateful policies and lets
        # every host pair on the same switch pair share one path search.
        self._templates: dict[tuple[int, int], Optional[Template]] = {}
        # s_src -> (parent, goal) full legalization-Dijkstra tree.
        self._legal_trees: dict[int, tuple[dict, dict]] = {}
        # sub_path -> (interned sub_path, inter-switch ports), validated.
        self._sub_paths: dict[tuple[int, ...],
                              tuple[tuple[int, ...], tuple[int, ...]]] = {}
        # (entry host, exit host, sub_path) -> the stamped segment.
        self._segments: dict[tuple[int, int, tuple[int, ...]],
                             SourceRoute] = {}

    # ------------------------------------------------------------------
    # path analysis
    # ------------------------------------------------------------------

    def split_points(self, switch_path: Sequence[int]) -> list[int]:
        """Indices of switches where the path must be split (violations)."""
        return self.orientation.violations(self.topo, list(switch_path))

    def can_legalize(self, switch_path: Sequence[int]) -> bool:
        """True when every violation switch carries at least one host."""
        return all(
            bool(self.topo.hosts_on(switch_path[i]))
            for i in self.split_points(switch_path)
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def itb_route(self, src_host: int, dst_host: int) -> ItbRoute:
        """Compute the ITB route between two hosts.

        Preference order: minimal length with fewest ITBs; then (if
        ``allow_longer``) shortest legalizable length; then the plain
        up*/down* route as a single segment.
        """
        topo = self.topo
        if src_host == dst_host:
            raise RouteError("source and destination host are the same")
        s_src, s_dst = topo.switch_of(src_host), topo.switch_of(dst_host)
        template = self.template(s_src, s_dst)
        if template is not None:
            return self._route(src_host, dst_host, template)
        # Last resort: the plain up*/down* route (always legal).
        return self._updown.itb_route(src_host, dst_host)

    def template(self, s_src: int, s_dst: int) -> Optional[Template]:
        """Memoized :data:`Template` of a switch pair's plan.

        ``None`` means "fall back to plain up*/down*".  Built and
        validated once per switch pair; the (possibly stateful) host
        policy is applied per host pair afterwards, by stamping.
        """
        key = (s_src, s_dst)
        try:
            return self._templates[key]
        except KeyError:
            pass
        plan = self._pair_plan(s_src, s_dst)
        template = None if plan is None else self._make_template(*plan)
        self._templates[key] = template
        return template

    def adopt_plan(
        self, s_src: int, s_dst: int, switch_path: list[int], splits: list[int]
    ) -> None:
        """Take a known ``(switch_path, splits)`` plan for a switch pair.

        The plan is validated into a template like a computed one; a
        pair that already has a template keeps it.
        """
        key = (s_src, s_dst)
        if key not in self._templates:
            self._templates[key] = self._make_template(switch_path, splits)

    def _pair_plan(
        self, s_src: int, s_dst: int
    ) -> Optional[tuple[list[int], list[int]]]:
        """The ``(switch_path, splits)`` plan for a switch pair.

        ``None`` means "fall back to plain up*/down*".  Pure path
        analysis, computed once per switch pair by :meth:`template`.
        """
        topo = self.topo
        best: Optional[tuple[int, list[int], list[int]]] = None  # (n_itb, path, splits)
        for path in all_shortest_switch_paths(topo, s_src, s_dst,
                                              limit=self.max_paths):
            splits = self.split_points(path)
            if not all(topo.hosts_on(path[i]) for i in splits):
                continue
            if best is None or len(splits) < best[0]:
                best = (len(splits), path, splits)
            if best[0] == 0:
                break
        if best is not None:
            return best[1], best[2]
        if self.allow_longer:
            return self._shortest_legalizable(s_src, s_dst)
        return None

    def route(self, src_host: int, dst_host: int) -> ItbRoute:
        """Alias so routers are interchangeable in the harness."""
        return self.itb_route(src_host, dst_host)

    def routes_from(
        self,
        src_host: int,
        dests: Optional[Sequence[int]] = None,
        strict: bool = True,
    ) -> dict[int, ItbRoute]:
        """ITB routes from one host to every destination host.

        Shares the memoized switch-pair templates and per-source
        legalization tree; host_policy is still invoked once per cut of
        every host pair, in destination order, so stateful policies see
        the same call sequence as the per-pair loop.  ``strict=False``
        skips unroutable destinations (fault-remap keep-stale semantics).
        """
        topo = self.topo
        s_src = topo.switch_of(src_host)
        out: dict[int, ItbRoute] = {}
        for d in (topo.hosts() if dests is None else dests):
            if d == src_host:
                continue
            try:
                template = self.template(s_src, topo.switch_of(d))
                if template is not None:
                    route = self._route(src_host, d, template)
                else:
                    # Warm the up*/down* tree so the fallback is batched too.
                    self._updown.switch_tree(s_src)
                    route = self._updown.itb_route(src_host, d)
            except (RouteError, KeyError):
                if strict:
                    raise
                continue
            out[d] = route
        return out

    def all_pairs(self) -> dict[tuple[int, int], ItbRoute]:
        """ITB routes for every ordered host pair (the mapper's job).

        Batched over shared switch-pair templates and per-source trees;
        host_policy is called once per cut of every pair, in (source,
        destination) order.
        """
        hosts = self.topo.hosts()
        out: dict[tuple[int, int], ItbRoute] = {}
        for s in hosts:
            routes = self.routes_from(s)
            for d in hosts:
                if s != d:
                    out[(s, d)] = routes[d]
        return out

    def itb_all_pairs(self) -> dict[tuple[int, int], ItbRoute]:
        """Uniform batch interface shared by every router kind."""
        return self.all_pairs()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _make_template(
        self, switch_path: Sequence[int], splits: Sequence[int]
    ) -> Template:
        """Cut ``switch_path`` at the violation switches and validate.

        Each segment re-enters at the violation switch it was cut at,
        must obey the up*/down* rule, and has its inter-switch port
        bytes walked hop by hop (:func:`~repro.routing.updown.hop_ports`)
        — once per distinct sub-path, which is interned.
        """
        sub_paths = self._sub_paths
        segments = []
        start = 0
        for cut in (*splits, len(switch_path) - 1):
            key = tuple(switch_path[start:cut + 1])
            interned = sub_paths.get(key)
            if interned is None:
                if not self.orientation.is_valid_updown_path(self.topo, key):
                    raise RouteError(
                        f"internal error: segment {list(key)} still invalid"
                    )
                interned = sub_paths[key] = (key, hop_ports(self.topo, key))
            segments.append((*interned, key[-1]))
            start = cut
        return tuple(segments)

    def _route(self, src_host: int, dst_host: int,
               template: Template) -> ItbRoute:
        """Choose one in-transit host per cut, in order, then stamp."""
        topo, policy = self.topo, self.host_policy
        itb_hosts = tuple([policy(topo, cut, src_host, dst_host)
                           for _path, _ports, cut in template[:-1]])
        return self.stamp(src_host, dst_host, template, itb_hosts)

    def stamp(
        self,
        src_host: int,
        dst_host: int,
        template: Template,
        itb_hosts: Sequence[int],
    ) -> ItbRoute:
        """The route of one host pair through the given in-transit hosts.

        ``itb_hosts`` names one host per cut of ``template``; each must
        be attached to its cut switch.  A segment is stamped once per
        ``(entry host, exit host, sub_path)`` — the template's
        ``sub_path`` plus the verified exit port — and shared by every
        route that uses it.
        """
        if len(itb_hosts) != len(template) - 1:
            raise RouteError(f"{len(template) - 1} cuts need as many"
                             f" in-transit hosts, got {list(itb_hosts)}")
        memo, exits = self._segments, self._exits
        segments = []
        entry = src_host
        for (sub_path, ports, cut), exit_host in zip(template,
                                                     (*itb_hosts, dst_host)):
            key = (entry, exit_host, sub_path)
            segment = memo.get(key)
            if segment is None:
                segment = memo[key] = SourceRoute(
                    entry, exit_host, ports + (exits.port(cut, exit_host),),
                    sub_path)
            segments.append(segment)
            entry = exit_host
        return ItbRoute(tuple(segments))

    def _legal_tree_for(self, s_src: int) -> tuple[dict, dict]:
        """Full legalization Dijkstra from one source switch, memoized.

        Runs the same (hops, itbs)-lexicographic expansion as the
        per-pair search but to exhaustion, recording the first finalized
        state popped at every switch.  Edge costs are strictly positive
        and relaxation is strictly ``<``, so every predecessor on a
        goal's parent chain is finalized before the goal pops — the
        reconstructed (path, splits) is byte-identical to the early-exit
        per-pair search (kept as a test oracle in ``tests/oracles/itb.py``)
        for every destination at once.
        """
        cached = self._legal_trees.get(s_src)
        if cached is not None:
            return cached
        import heapq

        topo = self.topo
        adj = _switch_adjacency(topo)
        table = self.orientation.pair_direction_table(topo)
        inf = (1 << 30, 1 << 30)
        start = (s_src, 0)
        dist: dict[tuple[int, int], tuple[int, int]] = {start: (0, 0)}
        parent: dict[tuple[int, int], tuple[tuple[int, int], bool]] = {}
        heap: list[tuple[int, int, tuple[int, int]]] = [(0, 0, start)]
        goal: dict[int, tuple[int, int]] = {}
        while heap:
            hops, itbs, state = heapq.heappop(heap)
            if dist.get(state, inf) < (hops, itbs):
                continue
            u, phase = state
            if u not in goal:
                goal[u] = state
            if phase == 1 and topo.hosts_on(u):
                nstate = (u, 0)
                ncost = (hops, itbs + 1)
                if ncost < dist.get(nstate, inf):
                    dist[nstate] = ncost
                    parent[nstate] = (state, True)
                    heapq.heappush(heap, (hops, itbs + 1, nstate))
            for v in adj[u]:
                d = table[(u, v)]
                if phase == 1 and d is Direction.UP:
                    continue
                nphase = 1 if d is Direction.DOWN else phase
                nstate = (v, nphase)
                ncost = (hops + 1, itbs)
                if ncost < dist.get(nstate, inf):
                    dist[nstate] = ncost
                    parent[nstate] = (state, False)
                    heapq.heappush(heap, (hops + 1, itbs, nstate))
        tree = (parent, goal)
        self._legal_trees[s_src] = tree
        return tree

    def _shortest_legalizable(
        self, s_src: int, s_dst: int
    ) -> Optional[tuple[list[int], list[int]]]:
        """Shortest legalizable (path, splits), served off the memoized
        per-source tree; ``None`` when the destination is unreachable."""
        parent, goal = self._legal_tree_for(s_src)
        state = goal.get(s_dst)
        if state is None:
            return None
        start = (s_src, 0)
        rev_states: list[tuple[tuple[int, int], bool]] = []
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

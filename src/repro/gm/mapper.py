"""The network mapper.

The Myrinet mapper explores the fabric, computes routes among all
hosts, and stores them in each NIC's SRAM.  The paper modifies it to
"calculate paths with the proposed mechanism" — i.e. to emit ITB
routes.  The exploration phase is not timing-relevant to any
experiment, so it runs at construction time; what matters (and what
this module provides) is the *routing policy* and the stamped tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Union

from repro.nic.lanai import Nic
from repro.routing.itb import HostPolicy, ItbRouter
from repro.routing.minimal import MinimalRouter
from repro.routing.routes import ItbRoute, RouteError, SourceRoute
from repro.routing.selectors import Selector
from repro.routing.spanning_tree import UpDownOrientation, build_orientation
from repro.routing.tables import build_route_tables
from repro.routing.updown import UpDownRouter
from repro.topology.graph import Topology

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.core.builder import BuiltNetwork

__all__ = ["ItbReselector", "remap_tables", "run_mapper"]


def run_mapper(
    topo: Topology,
    nics: Mapping[int, Nic],
    routing: str = "updown",
    orientation: Optional[UpDownOrientation] = None,
    overrides: Optional[Mapping[tuple[int, int],
                                Union[SourceRoute, ItbRoute]]] = None,
    root: Optional[int] = None,
    host_policy: Optional[HostPolicy] = None,
) -> UpDownOrientation:
    """Compute and stamp route tables into every NIC.

    Parameters
    ----------
    routing:
        ``"updown"`` (stock mapper), ``"itb"`` (modified mapper), or
        ``"minimal"`` (unrestricted shortest paths — only safe with
        escape lanes or on acyclic fabrics).
    overrides:
        Hand-built routes for specific (src, dst) pairs — the paper's
        evaluation uses carefully constructed paths rather than mapper
        output, so the harness overrides exactly those pairs.
    root:
        Optional spanning-tree root (defaults to min-eccentricity).
    host_policy:
        Optional in-transit host chooser for the ITB router (a
        :class:`~repro.routing.selectors.Selector` or any
        :data:`~repro.routing.itb.HostPolicy`).

    Returns the orientation used (shared by both routings so they agree
    on link directions).
    """
    if orientation is None:
        orientation = build_orientation(topo, root=root)
    if routing == "updown":
        router = UpDownRouter(topo, orientation)
    elif routing == "itb":
        if host_policy is not None:
            router = ItbRouter(topo, orientation, host_policy=host_policy)
        else:
            router = ItbRouter(topo, orientation)
    elif routing == "minimal":
        router = MinimalRouter(topo, orientation)
    else:
        raise RouteError(f"unknown routing policy {routing!r}")

    pairs: dict[tuple[int, int], ItbRoute] = {}
    if overrides:
        for (s, d), route in overrides.items():
            if isinstance(route, SourceRoute):
                route = ItbRoute((route,))
            pairs[(s, d)] = route

    hosts = sorted(nics)
    tables = build_route_tables(hosts, router, pairs=pairs)
    for host, table in tables.items():
        nics[host].route_table = table
    return orientation


def remap_tables(
    net: "BuiltNetwork",
    down_links: set[int],
    dead_hosts: Optional[set[int]] = None,
    host_policy: Optional[HostPolicy] = None,
) -> int:
    """Re-route a degraded network in place (fault recovery).

    Models the outcome of the mapper's re-discovery pass after a
    fault: routes are recomputed on a copy of the topology with the
    down cables removed and stamped over the live NIC route tables of
    every still-reachable host.  An ITB route whose in-transit host
    died is thereby re-split through an alternate host on the same
    violation switch (the degraded ``hosts_on`` no longer offers the
    dead one).  Pairs that the degraded fabric cannot route — the
    destination is unreachable, or the switch graph is disconnected —
    keep their stale route: packets toward them die on the wire and
    the sender's retransmission budget degrades the send gracefully.

    ``host_policy`` overrides the in-transit host chooser the degraded
    ITB router uses.  When omitted and an :class:`ItbReselector` is
    attached to the network, the remap routes through its selector —
    a fault remap *is* a forced reselection: the same selection seam,
    the same counters, the same trace spans.

    The degraded orientation and router an attached reselector's
    selector routes through are held on the reselector per fault set,
    so passes during one outstanding fault reuse them.

    Returns the number of (src, dst) pairs whose stamped route
    actually changed.
    """
    dead_hosts = dead_hosts or set()
    topo = net.topo
    alive = [
        h for h in sorted(net.nics)
        if h not in dead_hosts
        and topo.host_link(h).link_id not in down_links
    ]
    routing = getattr(net.config.routing, "value", net.config.routing)
    reselector: Optional["ItbReselector"] = None
    if routing == "itb":
        reselector = net.fabric.meta.get("itb_reselector")
        if host_policy is None and reselector is not None:
            host_policy = reselector.selector
    if reselector is not None:
        reselector.runs += 1
        reselector.forced += 1
        if isinstance(host_policy, Selector):
            host_policy.begin_epoch()
    if reselector is not None and host_policy is reselector.selector:
        router = reselector.degraded_router(down_links, dead_hosts)
    else:
        router = _degraded_router(net, routing, down_links, host_policy)
    if router is None:
        return 0  # no usable fabric at all; keep every stale route
    changed = 0
    for src in alive:
        table = net.nics[src].route_table
        if table is None:
            continue
        # One batched tree per surviving source; unroutable pairs are
        # skipped inside routes_from (strict=False) — same keep-stale
        # semantics as the old per-pair try/except loop.
        try:
            routes = router.routes_from(
                src, dests=[d for d in alive if d != src], strict=False
            )
        except (RouteError, KeyError):
            continue  # source itself unroutable: keep every stale route
        for dst, route in routes.items():
            old = table.entries.get(dst)
            if route == old:
                continue
            table.install(dst, route)
            changed += 1
            if reselector is not None:
                reselector.note_change(src, dst, old, route)
    if reselector is not None:
        reselector.pairs_changed += changed
        if changed:
            reselector.tables_changed()
    return changed


def _degraded_router(
    net: "BuiltNetwork",
    routing: str,
    down_links: set[int],
    host_policy: Optional[HostPolicy],
) -> Union[ItbRouter, UpDownRouter, None]:
    """A router over ``net`` without ``down_links``; ``None`` when the
    degraded switch fabric has no usable orientation."""
    topo = net.topo
    degraded = topo.without_links(down_links) if down_links else topo
    try:
        orientation = build_orientation(degraded, root=net.config.root)
    except RouteError:
        # The configured root lost every cable: let the mapper elect a
        # new one, as the real re-discovery would.
        try:
            orientation = build_orientation(degraded)
        except RouteError:
            return None
    if routing != "itb":
        return UpDownRouter(degraded, orientation)
    if host_policy is not None:
        return ItbRouter(degraded, orientation, host_policy=host_policy)
    return ItbRouter(degraded, orientation)


class ItbReselector:
    """Congestion-driven reselection of in-transit hosts on a live net.

    Closes the loop the paper leaves open: ITB placement is computed
    once at route-build time, but under load the chosen in-transit
    hosts become hotspots (its own Figure 8 data).  The reselector
    periodically re-runs in-transit host selection over the *already
    stamped* route tables — same candidate splits, same
    :class:`~repro.routing.itb.ItbRouter` switch-pair templates — with a
    pluggable :class:`~repro.routing.selectors.Selector` fed by a live
    congestion view, and re-stamps only the pairs whose choice moved.

    A pass walks a list of the ITB pairs (sorted source, then sorted
    destination), each with its template and a route memo from the
    tuple of chosen in-transit hosts to the stamped
    :class:`~repro.routing.routes.ItbRoute`.  Per pair it calls the
    selector once per cut, looks the choice up in the memo (stamping
    only on a miss), and compares the result with the installed route by
    identity before equality.  The pair list is rebuilt after a remap
    changed the tables.  The selector is called through its
    :meth:`~repro.routing.selectors.Selector.pass_policy`, so a
    switch-keyed policy (``static``, ``least-loaded``) reads each cut
    switch's loads once per pass, however many pairs cut there.

    Fault integration: a fault remap (:func:`remap_tables`) resolves
    this reselector from ``fabric.meta`` and routes through its
    selector, so PR-5's fault recovery is literally a *forced
    reselection* — and while faults are outstanding the periodic pass
    delegates to the same degraded-topology remap instead of
    reinstalling stale full-fabric routes over it.  The degraded
    orientation and router of the current fault set are held here
    (:meth:`degraded_router`), so those passes do not rebuild them.

    Telemetry: ``runs`` / ``forced`` / ``pairs_changed`` plus the
    selector's ``decisions`` / ``engaged`` feed the ``itb_reselect_*``
    counters (:func:`repro.obs.attach.instrument_network`), and every
    placement change emits an ``itb_select`` trace span when span
    tracing is on.  With a zero (or absent) congestion view every
    policy reproduces the static split, nothing changes, no spans are
    emitted — the zero-load oracle contract.
    """

    def __init__(
        self,
        net: "BuiltNetwork",
        selector: Selector,
        interval_ns: Optional[float] = None,
    ) -> None:
        self.net = net
        self.selector = selector
        self.runs = 0
        self.forced = 0
        self.pairs_changed = 0
        # Full-fabric router sharing the build orientation; its template
        # memo makes steady-state reselection selector calls plus memo
        # lookups.
        self._router = ItbRouter(net.topo, net.orientation,
                                 host_policy=selector)
        self._warm_plans_from_tables()
        # (src, dst, table, template, cut switches, route memo) per ITB
        # pair; None until the next pass rebuilds it.
        self._pairs: Optional[list] = None
        # (src, dst) -> {chosen in-transit hosts: stamped route}.
        self._memos: dict[tuple[int, int],
                          dict[tuple[int, ...], ItbRoute]] = {}
        # (fault-set key, degraded router or None) of the last remap.
        self._degraded: Optional[tuple] = None
        net.fabric.meta["itb_reselector"] = self
        if interval_ns is not None:
            self.start(interval_ns)

    def _warm_plans_from_tables(self) -> None:
        """Seed the router's switch-pair templates from the stamped routes.

        An ITB route's segments concatenate back into exactly the
        ``(switch_path, splits)`` plan the build-time router chose
        (each segment re-enters at its violation switch); the router
        validates each such plan into its template once
        (:meth:`~repro.routing.itb.ItbRouter.adopt_plan`).  So the
        reselector never re-runs path enumeration or the legalization
        Dijkstra for pairs the mapper already routed, and a pass stamps
        routes from templates into the per-pair route memo.
        """
        topo = self.net.topo
        for src in sorted(self.net.nics):
            table = self.net.nics[src].route_table
            if table is None:
                continue
            s_src = topo.switch_of(src)
            for dst in table.destinations():
                route = table.entries[dst]
                if len(route.segments) <= 1:
                    continue
                path = list(route.segments[0].switch_path)
                splits: list[int] = []
                for seg in route.segments[1:]:
                    splits.append(len(path) - 1)
                    path.extend(seg.switch_path[1:])
                self._router.adopt_plan(s_src, topo.switch_of(dst),
                                        path, splits)

    @property
    def decisions(self) -> int:
        """Total selector invocations (one per ITB cut considered)."""
        return self.selector.decisions

    @property
    def engaged(self) -> int:
        """Decisions where live congestion diverted the static pick."""
        return self.selector.engaged

    def start(self, interval_ns: float) -> None:
        """Run :meth:`reselect` every ``interval_ns`` of sim time."""
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        from repro.sim.engine import Timeout

        def loop():
            while True:
                yield Timeout(interval_ns)
                self.reselect()

        self.net.sim.process(loop(), name="itb-reselect")

    def degraded_router(
        self, down_links: set[int], dead_hosts: set[int]
    ) -> Union[ItbRouter, UpDownRouter, None]:
        """The remap router for one fault set, built once per fault set.

        Routes through this reselector's selector; ``None`` when the
        degraded fabric has no usable orientation.
        """
        key = (frozenset(down_links), frozenset(dead_hosts))
        if self._degraded is None or self._degraded[0] != key:
            self._degraded = (key, _degraded_router(
                self.net, "itb", down_links, self.selector))
        return self._degraded[1]

    def tables_changed(self) -> None:
        """Someone else restamped routes: rebuild the pair list next pass."""
        self._pairs = None

    def _itb_pairs(self) -> list:
        """The ITB pairs of the current tables, in pass order."""
        topo = self.net.topo
        pairs = []
        for src in sorted(self.net.nics):
            table = self.net.nics[src].route_table
            if table is None:
                continue
            s_src = topo.switch_of(src)
            for dst in table.destinations():
                if len(table.entries[dst].segments) <= 1:
                    continue
                template = self._router.template(s_src, topo.switch_of(dst))
                if template is None or len(template) == 1:
                    continue
                cuts = tuple(cut for _path, _ports, cut in template[:-1])
                memo = self._memos.setdefault((src, dst), {})
                pairs.append((src, dst, table, template, cuts, memo))
        return pairs

    def reselect(self) -> int:
        """One reselection pass; returns the number of pairs restamped.

        Pairs whose route carries no in-transit host are untouched
        (selection cannot change a single-segment route); pairs whose
        selector choice equals the stamped route are not reinstalled,
        so a zero-load pass is a pure no-op.
        """
        injector = self.net.fabric.meta.get("fault_injector")
        if injector is not None and (injector.down_links
                                     or injector.dead_hosts):
            # Outstanding faults: reselect on the degraded fabric via
            # the shared remap path (counts as a forced run there).
            return remap_tables(self.net, set(injector.down_links),
                                set(injector.dead_hosts))
        self.runs += 1
        selector = self.selector
        selector.begin_epoch()
        if self._pairs is None:
            self._pairs = self._itb_pairs()
        topo = self.net.topo
        stamp = self._router.stamp
        changed = 0
        decide = selector.pass_policy()
        for src, dst, table, template, cuts, memo in self._pairs:
            hosts = tuple([decide(topo, cut, src, dst) for cut in cuts])
            route = memo.get(hosts)
            if route is None:
                route = memo[hosts] = stamp(src, dst, template, hosts)
            current = table.entries[dst]
            if route is current:
                continue
            if route == current:
                # Same route, another object (the mapper's or a remap's):
                # keep the installed one so the next pass is an `is` hit.
                memo[hosts] = current
                continue
            table.install(dst, route)
            changed += 1
            self.note_change(src, dst, current, route)
        self.pairs_changed += changed
        return changed

    def note_change(self, src: int, dst: int, old, new) -> None:
        """Record one placement change as an ``itb_select`` trace span."""
        tracer = getattr(self.net.fabric, "tracer", None)
        if tracer is None:
            return
        now = self.net.sim.now
        span = tracer.begin(
            "itb_select", now, component=f"selector[{self.selector.name}]",
            src=src, dst=dst, epoch=self.selector.epoch,
            old=list(old.itb_hosts) if old is not None else [],
            new=list(new.itb_hosts),
        )
        span.close(now, "ok")

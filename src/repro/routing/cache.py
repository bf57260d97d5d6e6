"""Process-safe all-pairs route cache.

Every experiment point that builds a network recomputes the same
spanning tree, up*/down* search, and ITB all-pairs legalization —
pure functions of ``(topology, routing kind, spanning-tree root)``.
On a 16-switch COW that is the dominant setup cost of a point, and a
load sweep re-pays it per (routing, rate) sample.

:class:`RouteCache` memoizes the mapper's output keyed by a
structural topology signature, the routing policy name, and the root.
The cached value is the :class:`~repro.routing.spanning_tree.UpDownOrientation`
plus the all-pairs route dict; fresh :class:`~repro.routing.tables.RouteTable`
objects are minted per consumer so NIC-side ``install`` overrides can
never corrupt the shared entry.

Parallel runs share the cache by **fork inheritance**: the experiment
runner warms the cache in the parent process before fanning points
out, so workers find every shared table already present.  The
hit/miss counters live in ``multiprocessing.Value`` shared memory and
therefore stay accurate across workers — the acceptance tests assert
"each shared route table computed at most once" directly on them.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading
from collections import OrderedDict
from typing import Optional

from repro.routing.itb import ItbRouter
from repro.routing.minimal import MinimalRouter
from repro.routing.routes import ItbRoute, RouteError
from repro.routing.spanning_tree import UpDownOrientation, build_orientation
from repro.routing.tables import RouteTable
from repro.routing.updown import UpDownRouter
from repro.topology.graph import Topology

__all__ = ["RouteCache", "default_route_cache", "topology_signature"]


def topology_signature(topo: Topology) -> str:
    """A stable structural digest of a topology.

    Two topologies built the same way (same generator, same seed) get
    the same signature even though they are distinct objects — that is
    what lets a cache entry computed in one process serve points that
    rebuild the topology from scratch.
    """
    def digest() -> str:
        parts: list[str] = [topo.name]
        for node in range(topo.n_nodes):
            parts.append(f"n{node}:{topo.kind(node).value}:{topo.n_ports(node)}")
        for link in topo.links:
            (na, pa), (nb, pb) = link.endpoints()
            parts.append(f"l{na}.{pa}-{nb}.{pb}:{link.kind.value}")
        return hashlib.sha1("|".join(parts).encode()).hexdigest()

    # Memoized on the topology (invalidated by node/link growth like
    # every other derived map) so repeated cache lookups on a large
    # fabric don't re-hash tens of thousands of link strings each time.
    return topo.derived("topology_signature", digest)


_ROUTERS = {
    "updown": UpDownRouter,
    "itb": ItbRouter,
    "minimal": MinimalRouter,
}


class RouteCache:
    """Memoizes ``(topology, routing, root) -> (orientation, all-pairs routes)``.

    Hit/miss counters are shared memory (``multiprocessing.Value``),
    so forked worker processes report into the same totals.  The entry
    dict itself is per-process: the runner warms it in the parent, and
    forked children inherit the warmed entries copy-on-write.

    Memory is bounded: the cache holds at most ``max_entries`` entries
    in LRU order (lookups refresh recency, insertion past the bound
    evicts the least recently used entry and bumps the shared
    ``evictions`` counter).  All-pairs route dicts on large fabrics
    are the biggest objects the harness retains, so a long-lived
    process sweeping many topologies (fault campaigns, root studies,
    scale studies — each fabric size is its own entry) would
    otherwise grow without limit.  ``max_entries=None`` disables the
    bound.
    """

    #: Default bound — far above any single experiment's working set
    #: (a full sweep touches a handful of (topology, routing, root)
    #: combos), so eviction only triggers on topology-churning runs.
    DEFAULT_MAX_ENTRIES = 128

    def __init__(self, max_entries: Optional[int] = DEFAULT_MAX_ENTRIES
                 ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple[str, str, Optional[int]],
                                   tuple[UpDownOrientation,
                                         dict[tuple[int, int], ItbRoute]]] \
            = OrderedDict()
        self._lock = threading.Lock()
        self._hits = multiprocessing.Value("q", 0)
        self._misses = multiprocessing.Value("q", 0)
        self._evictions = multiprocessing.Value("q", 0)
        self._batch_hits = multiprocessing.Value("q", 0)

    # -- stats -------------------------------------------------------------

    @property
    def hits(self) -> int:
        """Lookups served from the cache (all processes)."""
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        """Lookups that had to compute routes (all processes)."""
        return int(self._misses.value)

    @property
    def evictions(self) -> int:
        """Entries dropped by the LRU bound (all processes)."""
        return int(self._evictions.value)

    @property
    def batch_hits(self) -> int:
        """Per-source tree requests served off a warm all-pairs entry."""
        return int(self._batch_hits.value)

    def stats(self) -> dict:
        """Counters plus the number of distinct entries in *this* process."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "batch_hits": self.batch_hits,
                "entries": len(self._entries)}

    def reset_stats(self) -> None:
        """Zero the shared counters (entries stay cached)."""
        for counter in (self._hits, self._misses, self._evictions,
                        self._batch_hits):
            with counter.get_lock():
                counter.value = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- core --------------------------------------------------------------

    def key_for(self, topo: Topology, routing: str,
                root: Optional[int] = None) -> tuple[str, str, Optional[int]]:
        """The cache key of one ``(topology, routing, root)`` combo."""
        return (topology_signature(topo), routing, root)

    def routes_for(
        self,
        topo: Topology,
        routing: str,
        root: Optional[int] = None,
    ) -> tuple[UpDownOrientation, dict[tuple[int, int], ItbRoute]]:
        """The orientation and all-pairs routes, computed at most once.

        The returned pairs dict is the shared entry — treat it as
        read-only (:meth:`tables_for` mints safe per-consumer tables).
        """
        if routing not in _ROUTERS:
            raise RouteError(f"unknown routing policy {routing!r}")
        key = self.key_for(topo, routing, root)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is not None:
            with self._hits.get_lock():
                self._hits.value += 1
            return entry
        with self._misses.get_lock():
            self._misses.value += 1
        orientation = build_orientation(topo, root=root)
        router = _ROUTERS[routing](topo, orientation)
        # Batch-first construction: one tree per source switch instead
        # of a fresh search per host pair (byte-identical output, same
        # insertion order as the old per-pair loop).
        pairs = router.itb_all_pairs()
        with self._lock:
            self._entries.setdefault(key, (orientation, pairs))
            self._entries.move_to_end(key)
            evicted = 0
            while (self.max_entries is not None
                   and len(self._entries) > self.max_entries):
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            with self._evictions.get_lock():
                self._evictions.value += evicted
        return orientation, pairs

    def routes_from(
        self,
        topo: Topology,
        routing: str,
        src_host: int,
        root: Optional[int] = None,
    ) -> tuple[UpDownOrientation, dict[int, ItbRoute]]:
        """Routes from one source host, served off a warm batch entry.

        A warm all-pairs entry (or a previously computed per-source
        entry) serves the whole tree without any route computation —
        counted in ``batch_hits``.  A cold lookup computes only this
        source's tree via the batched per-source builder and caches it
        under a source-scoped key, so partial consumers (fault remap
        probes, CLI inspection) never pay the full all-pairs cost.
        """
        if routing not in _ROUTERS:
            raise RouteError(f"unknown routing policy {routing!r}")
        full_key = self.key_for(topo, routing, root)
        src_key = full_key + (src_host,)
        sub = None
        with self._lock:
            entry = self._entries.get(full_key)
            if entry is not None:
                self._entries.move_to_end(full_key)
            else:
                sub = self._entries.get(src_key)
                if sub is not None:
                    self._entries.move_to_end(src_key)
        if entry is not None:
            with self._batch_hits.get_lock():
                self._batch_hits.value += 1
            orientation, pairs = entry
            return orientation, {d: r for (s, d), r in pairs.items()
                                 if s == src_host}
        if sub is not None:
            with self._batch_hits.get_lock():
                self._batch_hits.value += 1
            return sub
        with self._misses.get_lock():
            self._misses.value += 1
        orientation = build_orientation(topo, root=root)
        router = _ROUTERS[routing](topo, orientation)
        routes = {
            d: (r if isinstance(r, ItbRoute) else ItbRoute((r,)))
            for d, r in router.routes_from(src_host).items()
        }
        with self._lock:
            self._entries.setdefault(src_key, (orientation, routes))
            self._entries.move_to_end(src_key)
            evicted = 0
            while (self.max_entries is not None
                   and len(self._entries) > self.max_entries):
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            with self._evictions.get_lock():
                self._evictions.value += evicted
        return orientation, routes

    def tables_for(
        self,
        topo: Topology,
        routing: str,
        root: Optional[int] = None,
    ) -> tuple[UpDownOrientation, dict[int, RouteTable]]:
        """Per-host route tables backed by the cached all-pairs routes.

        Tables are fresh objects per call (routes themselves are
        immutable and shared), so a consumer stamping overrides into
        its NICs cannot corrupt the cache.
        """
        orientation, pairs = self.routes_for(topo, routing, root=root)
        tables = {h: RouteTable(host=h) for h in topo.hosts()}
        for (s, d), route in pairs.items():
            tables[s].install(d, route)
        return orientation, tables

    def warm(self, topo: Topology, routing: str,
             root: Optional[int] = None) -> None:
        """Precompute one entry (the runner calls this before forking)."""
        self.routes_for(topo, routing, root=root)


_DEFAULT_CACHE: Optional[RouteCache] = None


def default_route_cache() -> RouteCache:
    """The process-wide shared cache (created on first use)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = RouteCache()
    return _DEFAULT_CACHE

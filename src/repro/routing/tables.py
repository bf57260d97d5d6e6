"""Per-host route tables.

The Myrinet mapper computes routes among all hosts and stores them in
each NIC's SRAM; the MCP stamps the path into the packet header at
send time.  :class:`RouteTable` is that per-NIC table.  For the ITB
routing, the entry for a destination is the *first segment* of the ITB
route plus the pre-encoded remainder (the in-transit host re-injects
using bytes already carried in the packet, not its own table — paper
Section 4 / Figure 3b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Protocol, Sequence, Union

from repro.routing.routes import ItbRoute, RouteError, SourceRoute

__all__ = ["RouteTable", "build_route_tables"]


class _Router(Protocol):  # UpDownRouter, ItbRouter or MinimalRouter
    def routes_from(
        self, src_host: int, dests: Optional[Sequence[int]] = None,
        strict: bool = True,
    ) -> Mapping[int, Union[SourceRoute, ItbRoute]]: ...


@dataclass
class RouteTable:
    """Routes stored in one host's NIC SRAM, keyed by destination host."""

    host: int
    entries: dict[int, ItbRoute] = field(default_factory=dict)

    def lookup(self, dst_host: int) -> ItbRoute:
        """The stamped route toward a destination host."""
        try:
            return self.entries[dst_host]
        except KeyError:
            raise RouteError(
                f"host {self.host} has no route to {dst_host}"
            ) from None

    def install(self, dst_host: int, route: Union[SourceRoute, ItbRoute]) -> None:
        """Stamp (or overwrite) the route toward ``dst_host``."""
        if isinstance(route, SourceRoute):
            route = ItbRoute((route,))
        if route.src != self.host or route.dst != dst_host:
            raise RouteError(
                f"route {route.src}->{route.dst} does not belong in table"
                f" of host {self.host} for destination {dst_host}"
            )
        self.entries[dst_host] = route

    def destinations(self) -> list[int]:
        """Destination host ids with a stamped route."""
        return sorted(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def build_route_tables(
    hosts: list[int],
    router: _Router,
    pairs: Optional[Mapping[tuple[int, int], ItbRoute]] = None,
) -> dict[int, RouteTable]:
    """Compute the full set of tables the mapper would distribute.

    ``pairs`` may supply precomputed routes (e.g. hand-built test
    routes); the rest come from the router's batched per-source
    ``routes_from`` (one tree per source instead of a search per
    pair), which raises rather than leave a pair unrouted.  The router
    sees each source's destinations in ``hosts`` order, so a stateful
    host policy makes the same calls on every build.
    """
    pairs = pairs or {}
    tables = {h: RouteTable(host=h) for h in hosts}
    for s in hosts:
        missing = [d for d in hosts if d != s and pairs.get((s, d)) is None]
        computed = router.routes_from(s, dests=missing)
        for d in hosts:
            if d != s:
                route = pairs.get((s, d))
                tables[s].install(d, computed[d] if route is None else route)
    return tables

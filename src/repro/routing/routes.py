"""Route datatypes.

A Myrinet **source route** is the sequence of output-port bytes the
packet header carries: one byte per switch traversed, consumed by each
switch as the header passes.  :class:`SourceRoute` couples the byte
sequence with the node-level hop list it resolves to (for the
simulator and for validity analysis).

An **ITB route** (:class:`ItbRoute`) is a chain of source-route
segments; the boundary between consecutive segments is an in-transit
host where the packet is ejected and re-injected (paper Figure 3b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

__all__ = ["Direction", "ItbRoute", "RouteError", "SourceRoute"]


class RouteError(ValueError):
    """Raised when a requested route cannot be computed or is ill-formed."""


class Direction(Enum):
    """Traversal direction of a link under an up*/down* orientation."""

    UP = "up"
    DOWN = "down"


class _Route:
    """Base of the route types: weak-referenceable, with no ``__dict__``.

    The dataclasses below add their fields as ``__slots__``; declaring
    ``__weakref__`` here keeps them weak-referenceable on every
    supported Python (``dataclass(weakref_slot=...)`` needs 3.11).
    """

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class SourceRoute(_Route):
    """One deliverable source route from a source host to a dest host.

    Attributes
    ----------
    src, dst:
        Endpoint host node ids (for an ITB segment, ``dst`` may be an
        in-transit host rather than the final destination).
    ports:
        Output-port byte per traversed switch, in order.
    switch_path:
        Node ids of the switches traversed, in order.  Always
        ``len(switch_path) == len(ports)``.

    A router stamps one object per distinct segment and shares the
    ``ports``/``switch_path`` tuples between routes that traverse the
    same switches (:mod:`repro.routing.itb`, :mod:`repro.routing.updown`).
    """

    src: int
    dst: int
    ports: tuple[int, ...]
    switch_path: tuple[int, ...]
    #: Encoded header, memoized by :mod:`repro.mcp.packet_format`.
    _packet_header: Optional[bytes] = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.ports) != len(self.switch_path):
            raise RouteError(
                f"ports({len(self.ports)}) and switch_path"
                f"({len(self.switch_path)}) length mismatch"
            )
        if len(self.ports) == 0:
            raise RouteError("a source route traverses at least one switch")

    @property
    def n_switches(self) -> int:
        """Number of switch traversals (= number of routing bytes)."""
        return len(self.ports)

    @property
    def n_links(self) -> int:
        """Physical cables crossed, including both NIC cables."""
        return len(self.ports) + 1

    def switch_hops(self) -> list[tuple[int, int]]:
        """Directed (switch, switch) pairs for switch-to-switch cables."""
        return list(zip(self.switch_path, self.switch_path[1:]))

    def __len__(self) -> int:
        return len(self.ports)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        path = "->".join(str(s) for s in self.switch_path)
        return f"<SourceRoute {self.src}->{self.dst} via [{path}]>"


@dataclass(frozen=True, slots=True)
class ItbRoute(_Route):
    """A route made of one or more segments joined at in-transit hosts.

    ``segments[i].dst == itb_hosts[i]`` for every in-transit host, and
    ``segments[i + 1].src == itb_hosts[i]``.  A plain route (no ITBs)
    is represented as a single-segment :class:`ItbRoute`.
    """

    segments: tuple[SourceRoute, ...]
    #: Encoded header, memoized by :mod:`repro.mcp.packet_format`.
    _packet_header: Optional[bytes] = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise RouteError("ItbRoute needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            if a.dst != b.src:
                raise RouteError(
                    f"segment chain broken: {a.dst} != {b.src}"
                )

    @property
    def src(self) -> int:
        return self.segments[0].src

    @property
    def dst(self) -> int:
        return self.segments[-1].dst

    @property
    def itb_hosts(self) -> tuple[int, ...]:
        """In-transit host ids, in traversal order."""
        return tuple(seg.dst for seg in self.segments[:-1])

    @property
    def n_itbs(self) -> int:
        return len(self.segments) - 1

    @property
    def n_switches(self) -> int:
        """Total switch traversals across all segments."""
        return sum(seg.n_switches for seg in self.segments)

    def switch_hops(self) -> list[tuple[int, int]]:
        """Directed switch-to-switch hops across all segments."""
        out: list[tuple[int, int]] = []
        for seg in self.segments:
            out.extend(seg.switch_hops())
        return out

    def __iter__(self) -> Iterator[SourceRoute]:
        return iter(self.segments)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ItbRoute {self.src}->{self.dst} itbs={list(self.itb_hosts)}"
            f" switches={self.n_switches}>"
        )

"""Waitable resources and stores for the simulation kernel.

:class:`Resource` models a physical channel or engine with fixed integer
capacity and strict FIFO granting — the arbitration discipline of a
Myrinet switch output port or a DMA engine.

:class:`Store` models a FIFO queue of items (packet buffers, event
queues) with optional bounded capacity.

:class:`PriorityStore` models a prioritized event queue — the MCP's
event handler "giving control to the state machine that handles the
highest priority pending event" (paper Section 3).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Event, SimulationError, Simulator

__all__ = ["PriorityStore", "Resource", "Store"]


class Resource:
    """FIFO resource with integer capacity.

    Usage inside a process::

        req = resource.request(owner=me)
        yield req                 # resumes when granted
        ...                       # hold the resource
        resource.release(owner=me)

    Grants are strictly FIFO.  ``owner`` is an arbitrary token used for
    bookkeeping and error detection (double release, release without
    hold).

    The resource keeps its own load record: :attr:`grants` counts the
    holds granted and :attr:`busy_ns` sums the length of every hold
    released so far, added once per hold at its release.  A hold still
    open is not in :attr:`busy_ns`.
    """

    __slots__ = ("sim", "capacity", "name", "_req_name", "_holders",
                 "_since", "_waiters", "grants", "busy_ns")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("Resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._req_name = f"req:{name}"
        self._holders: list[Any] = []
        #: Start time of each hold, parallel to ``_holders``.
        self._since: list[float] = []
        self._waiters: Deque[tuple[Any, Event]] = deque()
        self.grants = 0
        self.busy_ns = 0.0

    # -- introspection ---------------------------------------------------

    @property
    def in_use(self) -> int:
        return len(self._holders)

    @property
    def free(self) -> bool:
        return len(self._holders) < self.capacity

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def holders(self) -> tuple[Any, ...]:
        """Current holders, in grant order."""
        return tuple(self._holders)

    # -- operations --------------------------------------------------------

    def request(self, owner: Any) -> Event:
        """Return an event that triggers when ``owner`` holds the resource."""
        ev = Event(self.sim, name=self._req_name)
        if len(self._holders) < self.capacity and not self._waiters:
            self._holders.append(owner)
            self._since.append(self.sim.now)
            self.grants += 1
            ev.succeed(self)
        else:
            self._waiters.append((owner, ev))
        return ev

    def try_acquire(self, owner: Any, since: Optional[float] = None) -> bool:
        """Acquire immediately if free (no queueing); return success.

        ``since`` is the hold's start for :attr:`busy_ns` when it began
        before now: a materialised express worm hold started at its
        closed-form acquire time (see :mod:`repro.network.worm`).
        """
        if len(self._holders) < self.capacity and not self._waiters:
            self._holders.append(owner)
            self._since.append(self.sim.now if since is None else since)
            self.grants += 1
            return True
        return False

    def release(self, owner: Any) -> None:
        """Release one hold by ``owner``; grants the next FIFO waiter."""
        holders = self._holders
        try:
            i = holders.index(owner)
        except ValueError:
            raise SimulationError(
                f"{owner!r} released {self.name!r} without holding it"
            ) from None
        del holders[i]
        now = self.sim.now
        self.busy_ns += now - self._since.pop(i)
        if self._waiters and len(holders) < self.capacity:
            next_owner, ev = self._waiters.popleft()
            holders.append(next_owner)
            self._since.append(now)
            self.grants += 1
            ev.succeed(self)

    def cancel(self, owner: Any) -> bool:
        """Remove a not-yet-granted request by ``owner``; return found."""
        for i, (who, _ev) in enumerate(self._waiters):
            if who is owner:
                del self._waiters[i]
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Resource {self.name!r} {self.in_use}/{self.capacity}"
            f" queue={self.queue_length}>"
        )


class Store:
    """FIFO store of items with optional bounded capacity.

    ``put`` blocks (returns a pending event) when the store is full;
    ``get`` blocks when it is empty.  ``try_put``/``try_get`` are the
    non-blocking variants used by firmware-style polling code.
    """

    __slots__ = ("sim", "capacity", "name", "_put_name", "_get_name",
                 "_items", "_getters", "_putters")

    def __init__(
        self, sim: Simulator, capacity: Optional[int] = None, name: str = ""
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("Store capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._put_name = f"put:{name}"
        self._get_name = f"get:{name}"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Any, Event]] = deque()

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def peek(self) -> Any:
        """The oldest item without removing it (raises when empty)."""
        if not self._items:
            raise SimulationError(f"peek on empty store {self.name!r}")
        return self._items[0]

    # -- operations --------------------------------------------------------

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event triggers once inserted."""
        ev = Event(self.sim, name=self._put_name)
        if self._getters:
            # Hand straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed(item)
        elif not self.full:
            self._items.append(item)
            ev.succeed(item)
        else:
            self._putters.append((item, ev))
        return ev

    def try_put(self, item: Any) -> bool:
        """Insert without blocking; return False when full."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            return True
        if self.full:
            return False
        self._items.append(item)
        return True

    def get(self) -> Event:
        """Remove the oldest item; the event's value is the item."""
        ev = Event(self.sim, name=self._get_name)
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Remove without blocking; returns ``(ok, item_or_None)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and not self.full:
            item, ev = self._putters.popleft()
            self._items.append(item)
            ev.succeed(item)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "inf" if self.capacity is None else self.capacity
        return f"<Store {self.name!r} {len(self._items)}/{cap}>"


class PriorityStore:
    """Priority queue of items with waitable ``get``.

    Lower priority numbers are served first; ties break FIFO by
    insertion order.  Models the MCP event handler: state-machine
    work is posted with a priority and the dispatcher always takes
    the highest-priority pending item.
    """

    __slots__ = ("sim", "name", "_get_name", "_heap", "_seq", "_getters")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._get_name = f"pget:{name}"
        self._heap: list[tuple[int, int, Any]] = []
        self._seq = 0
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._heap)

    def put(self, item: Any, priority: int = 0) -> None:
        """Post an item; wakes the oldest waiting getter if any."""
        self._seq += 1
        heapq.heappush(self._heap, (priority, self._seq, item))
        if self._getters:
            getter = self._getters.popleft()
            _prio, _seq, popped = heapq.heappop(self._heap)
            getter.succeed(popped)

    def get(self) -> Event:
        """Event yielding the highest-priority pending item."""
        ev = Event(self.sim, name=self._get_name)
        if self._heap:
            _prio, _seq, item = heapq.heappop(self._heap)
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking pop; returns ``(ok, item_or_None)``."""
        if self._heap:
            _prio, _seq, item = heapq.heappop(self._heap)
            return True, item
        return False, None

    def peek_priority(self) -> Optional[int]:
        """Priority of the front item, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PriorityStore {self.name!r} n={len(self._heap)}>"

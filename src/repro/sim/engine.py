"""Core discrete-event engine.

Design
------
The engine is an event-calendar loop with two lanes:

* a :mod:`heapq` calendar for *delayed* work — each entry is
  ``(time, priority, seq, callback)``; ``seq`` is a monotonically
  increasing tie-breaker that makes execution order fully
  deterministic for equal timestamps;
* an *immediate lane* — a FIFO :class:`~collections.deque` for
  zero-delay, default-priority work (event fan-out, process start,
  interrupts, the succeed→resume chain).  Entries carry their ``seq``
  so the drain loop can interleave the two lanes in exact global
  ``(time, priority, seq)`` order, but the common case skips the heap
  entirely: a zero-delay callback costs one ``deque.append`` and one
  ``popleft`` instead of a ``heappush``/``heappop`` pair.

Processes are Python generators that yield *waitables*:

* :class:`Timeout` — resume after a simulated delay,
* :class:`Event` — resume when the event is triggered.

Anything else yielded crashes the process with a
:class:`SimulationError`.

A process waiting on a :class:`Timeout` is resumed *directly from the
calendar*: no intermediate :class:`Event` is allocated and no callback
trampoline is scheduled — the timer entry steps the generator itself
(see :meth:`Process._wait_timeout`).  Stale timers left behind by an
interrupt are invalidated by a per-process wait token.

The generator protocol means process code reads like straight-line
firmware pseudocode, which is exactly what we need to transliterate the
MCP state machines from the paper.

Profiling: a :class:`repro.obs.profiler.Profiler` may be installed on
a simulator (``profiler.install(sim)``); the drain loop then routes
every dispatch — from either lane — through it, and processes
self-report which one stepped during a dispatch, giving per-component
event counts and wall-clock attribution with zero cost when no
profiler is installed.

See ``docs/ENGINE_FASTPATH.md`` for the fast-path design notes.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. re-triggering an event)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries an arbitrary payload supplied by the
    interrupter.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes may wait on.

    An event starts *untriggered*.  Calling :meth:`succeed` (or
    :meth:`fail`) triggers it exactly once; all waiting processes are
    resumed at the current simulation time, in FIFO order of arrival.
    """

    __slots__ = ("sim", "_value", "_exc", "triggered", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: list[Callable[["Event"], None]] = []

    @property
    def value(self) -> Any:
        return self._value

    @property
    def ok(self) -> bool:
        """True when triggered successfully (not failed)."""
        return self.triggered and self._exc is None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger successfully; waiters resume with ``value``."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.triggered = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger as failed; waiters get ``exc`` raised into them."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self._exc = exc
        self._dispatch()
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event triggers.

        If the event has already triggered, ``fn`` is scheduled to run at
        the current time rather than invoked synchronously, preserving
        run-to-completion semantics for the caller.
        """
        if self.triggered:
            sim = self.sim
            sim._seq += 1
            sim._immediate.append((sim._seq, lambda: fn(self)))
        else:
            self._callbacks.append(fn)

    def _dispatch(self) -> None:
        """Fan out to the callbacks: one immediate-lane entry each, with
        the ``seq`` accounting of ``sim.schedule(0.0, ...)``."""
        callbacks = self._callbacks
        if not callbacks:
            return
        self._callbacks = []
        sim = self.sim
        immediate = sim._immediate
        for fn in callbacks:
            sim._seq += 1
            immediate.append((sim._seq, lambda fn=fn: fn(self)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout:
    """A pure delay, yielded from inside a process: ``yield Timeout(5.0)``."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative Timeout delay: {delay}")
        self.delay = float(delay)
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


ProcessGen = Generator[Any, Any, Any]


class Process:
    """Handle to a running generator process.

    A process can be interrupted while it runs, and its generator's
    return value is kept in :attr:`returned` once it has ended.
    """

    __slots__ = ("sim", "gen", "name", "_alive", "_waiting_on", "_return",
                 "_wait_token")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._alive = True
        self._waiting_on: Optional[Event] = None
        self._return: Any = None
        self._wait_token = 0

    # -- public API ----------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def returned(self) -> Any:
        """Return value of the generator (valid once not ``alive``)."""
        return self._return

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is waiting detaches it from whatever it was waiting on.
        """
        if not self._alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        self.sim.schedule(0.0, lambda: self._throw(Interrupt(cause)))

    # -- engine internals ----------------------------------------------

    def _start(self) -> None:
        self._step(None)

    def _throw(self, exc: BaseException) -> None:
        """Throw ``exc`` into the generator (detaching from any wait).

        Safe against late delivery: a no-op once the process has
        terminated.  Also invalidates any pending direct-resume timer.
        """
        if not self._alive:
            return  # terminated between scheduling and delivery
        self._waiting_on = None
        self._wait_token += 1
        if self.sim.profiler is not None:
            self.sim.profiler.attribute(self.name)
        try:
            target = self.gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as err:
            self._crash(err)
            return
        self._wait_on(target)

    def _step(self, send_value: Any) -> None:
        if self.sim.profiler is not None:
            self.sim.profiler.attribute(self.name)
        try:
            target = self.gen.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as err:
            self._crash(err)
            return
        self._wait_on(target)

    def _resume_from_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wakeup (e.g. interrupted while waiting)
        self._waiting_on = None
        if event._exc is not None:
            self._throw(event._exc)
        else:
            self._step(event.value)

    def _wait_on(self, target: Any) -> None:
        """Suspend on ``target`` — type-keyed dispatch, no isinstance chain."""
        self._wait_token += 1
        handler = _WAIT_DISPATCH.get(target.__class__)
        if handler is None:
            handler = _resolve_wait_handler(target)
            if handler is None:
                self._crash(
                    SimulationError(
                        f"process {self.name!r} yielded non-waitable {target!r}"
                    )
                )
                return
        handler(self, target)

    def _wait_timeout(self, target: Timeout) -> None:
        """Direct-resume path: the calendar entry steps the generator.

        No intermediate :class:`Event`, no trampoline — one scheduled
        closure.  ``_wait_token`` guards against a stale timer firing
        after the process was interrupted (or moved on to a new wait).
        """
        token = self._wait_token
        value = target.value

        def resume() -> None:
            self._resume_from_timeout(token, value)

        # ``sim.schedule(target.delay, resume)``, inlined.
        sim = self.sim
        sim._seq += 1
        if target.delay == 0.0:
            sim._immediate.append((sim._seq, resume))
        else:
            heapq.heappush(sim._queue,
                           (sim._now + target.delay, 0, sim._seq, resume))

    def _resume_from_timeout(self, token: int, value: Any) -> None:
        if token != self._wait_token or not self._alive:
            return  # stale timer (interrupted, or wait superseded)
        self._step(value)

    def _wait_event(self, target: Event) -> None:
        self._waiting_on = target
        target.add_callback(self._resume_from_event)

    def _finish(self, value: Any) -> None:
        self._return = value
        self._alive = False

    def _crash(self, exc: BaseException) -> None:
        self.sim._record_crash(self, exc)
        self._return = None
        self._alive = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'alive' if self.alive else 'done'}>"


#: Exact-type dispatch table for ``Process._wait_on``.  Subclasses of
#: waitables are resolved once through the isinstance fallback below and
#: then memoized here, so the steady state is a single dict lookup.
_WAIT_DISPATCH: dict[type, Callable[[Process, Any], None]] = {
    Timeout: Process._wait_timeout,
    Event: Process._wait_event,
}


def _resolve_wait_handler(target: Any) -> Optional[Callable[[Process, Any], None]]:
    """Slow path: resolve (and memoize) a handler for waitable subclasses."""
    for base, handler in ((Timeout, Process._wait_timeout),
                          (Event, Process._wait_event)):
        if isinstance(target, base):
            _WAIT_DISPATCH[target.__class__] = handler
            return handler
    return None


class Simulator:
    """The event loop.

    Attributes
    ----------
    profiler:
        Optional :class:`repro.obs.profiler.Profiler`; when set, every
        dispatch is routed through it (install via
        ``Profiler().install(sim)``).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Callable[[], None]]] = []
        #: Immediate lane: zero-delay, priority-0 callbacks at the
        #: current time, drained in FIFO ``seq`` order interleaved with
        #: same-time calendar entries.
        self._immediate: Deque[tuple[int, Callable[[], None]]] = deque()
        self._seq = 0
        self._crashed: list[tuple[Process, BaseException]] = []
        self.profiler: Any = None

    # -- time and scheduling -------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled-but-undispatched callbacks (both lanes)."""
        return len(self._queue) + len(self._immediate)

    def schedule(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> None:
        """Run ``callback`` after ``delay`` ns (FIFO among equal times).

        Zero-delay, default-priority work goes to the immediate lane
        (a deque) instead of the heap; global ``(time, priority, seq)``
        order is preserved either way.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        if delay == 0.0 and priority == 0:
            self._immediate.append((self._seq, callback))
        else:
            heapq.heappush(self._queue,
                           (self._now + delay, priority, self._seq, callback))

    def schedule_at(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> None:
        """Run ``callback`` at the absolute simulation ``time``.

        Unlike :meth:`schedule`, the calendar entry carries ``time``
        itself rather than ``self._now + delay`` — the one float
        addition that makes relative scheduling drift by an ulp from a
        precomputed target.  Closed-form trajectories (the express worm
        flight) use this to land events at exactly the timestamps the
        stepped implementation's ``now = now + delay`` chain produces.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (time={time}, now={self._now})"
            )
        self._seq += 1
        if time == self._now and priority == 0:
            self._immediate.append((self._seq, callback))
        else:
            heapq.heappush(self._queue, (time, priority, self._seq, callback))

    def event(self, name: str = "") -> Event:
        """A fresh untriggered event bound to this simulator."""
        return Event(self, name=name)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a generator as a process at the current time."""
        proc = Process(self, gen, name=name)
        self._seq += 1
        self._immediate.append((self._seq, proc._start))
        return proc

    def process_now(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a generator as a process, stepping it synchronously.

        Unlike :meth:`process`, the generator's first step runs inside
        this call rather than through a zero-delay calendar entry.
        For use from *within* a calendar callback when the process's
        first action must keep the callback's position in same-time
        FIFO order (e.g. a resource ``request`` racing other entries
        at this timestamp — the express worm lane's demoted-tail
        resume relies on this).
        """
        proc = Process(self, gen, name=name)
        proc._start()
        return proc

    # -- running ---------------------------------------------------------

    def _drain(
        self,
        until: Optional[float],
        max_events: int,
        stop_event: Optional[Event],
    ) -> None:
        """The single dispatch loop behind :meth:`run` and
        :meth:`run_until_event`.

        Pops the globally next callback — immediate lane or calendar,
        whichever holds the lowest ``(time, priority, seq)`` — and runs
        it (through the profiler when installed).  Stops when the
        calendar is exhausted, the next entry is past ``until``, or
        ``stop_event`` has triggered.
        """
        queue = self._queue
        immediate = self._immediate
        dispatched = 0
        while True:
            if stop_event is not None and stop_event.triggered:
                return
            if immediate:
                # All immediate entries sit at (self._now, priority 0);
                # a calendar entry only precedes the lane head when it
                # is due now with higher priority or an earlier seq.
                callback = None
                if queue:
                    t, prio, seq, cb = queue[0]
                    if t <= self._now and (prio < 0 or
                                           (prio == 0 and seq < immediate[0][0])):
                        heapq.heappop(queue)
                        callback = cb
                if callback is None:
                    _seq, callback = immediate.popleft()
            elif queue:
                t, _prio, _seq, callback = queue[0]
                if until is not None and t > until:
                    return
                heapq.heappop(queue)
                self._now = t
            else:
                if stop_event is not None:
                    raise SimulationError(
                        f"deadlock: calendar empty but event"
                        f" {stop_event.name!r} never fired"
                    )
                return
            if self.profiler is None:
                callback()
            else:
                self.profiler.dispatch(callback)
            if self._crashed:
                self._check_crashes()
            dispatched += 1
            if dispatched >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; runaway simulation?"
                )

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Drain the event calendar.

        Stops when the calendar is empty, or when the next event is past
        ``until`` (the clock is then advanced to ``until``), or after
        ``max_events`` dispatches (raising, as a runaway guard).

        Returns the final simulation time.  If any process died with an
        unhandled exception during the run, the first such exception is
        re-raised so errors are never silently swallowed.
        """
        self._drain(until, max_events, None)
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_until_event(
        self, event: Event, max_events: int = 50_000_000
    ) -> Any:
        """Run until ``event`` triggers; return its value.

        Raises if the calendar drains without the event triggering.
        """
        self._drain(None, max_events, event)
        if event._exc is not None:
            raise event._exc
        return event.value

    # -- crash bookkeeping ----------------------------------------------

    def _record_crash(self, proc: Process, exc: BaseException) -> None:
        self._crashed.append((proc, exc))

    def _check_crashes(self) -> None:
        if self._crashed:
            proc, exc = self._crashed[0]
            raise SimulationError(
                f"process {proc.name!r} died: {exc!r}"
            ) from exc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Simulator t={self._now:.1f}ns"
                f" pending={len(self._queue) + len(self._immediate)}>")

"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import (
    Interrupt,
    SimulationError,
    Timeout,
)


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_callbacks_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(10, lambda: fired.append("b"))
        sim.schedule(5, lambda: fired.append("a"))
        sim.schedule(20, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 20.0

    def test_equal_times_fifo(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(7, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_the_past_rejected(self, sim):
        sim.schedule(5, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="in the past"):
            sim.schedule_at(4.0, lambda: None)
        assert sim.pending == 0

    def test_run_until_stops_clock(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(1))
        sim.run(until=50)
        assert fired == []
        assert sim.now == 50.0
        sim.run()
        assert fired == [1]

    def test_max_events_guard(self, sim):
        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(0, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_priority_breaks_ties(self, sim):
        fired = []
        sim.schedule(5, lambda: fired.append("low"), priority=1)
        sim.schedule(5, lambda: fired.append("high"), priority=0)
        sim.run()
        assert fired == ["high", "low"]

    def test_schedule_at_ranks_after_preexisting_same_instant_event(self, sim):
        """An absolute-time entry for T made later ranks after one already
        in the calendar at T: ``(time, priority, seq)`` order, the later
        entry holding the larger seq — also when made at T itself."""
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(("local", sim.now)))
        sim.schedule_at(0.0, lambda: sim.schedule_at(
            5.0, lambda: fired.append(("late", sim.now))))
        sim.schedule_at(5.0, lambda: sim.schedule_at(
            sim.now, lambda: fired.append(("same-instant", sim.now))))
        sim.run()
        assert fired == [("local", 5.0), ("late", 5.0),
                         ("same-instant", 5.0)]

    def test_schedule_at_priority_breaks_same_instant_ties(self, sim):
        """A negative-priority ``schedule_at`` entry at T outranks a
        default-priority entry at T that entered the calendar first."""
        fired = []
        sim.schedule_at(5.0, lambda: fired.append("local"))
        sim.schedule_at(5.0, lambda: fired.append("urgent"), priority=-1)
        sim.run()
        assert fired == ["urgent", "local"]


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event("x")
        seen = []

        def proc():
            value = yield ev
            seen.append(value)

        sim.process(proc())
        sim.schedule(5, lambda: ev.succeed(42))
        sim.run()
        assert seen == [42]

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("nope"))

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_callback_after_trigger_still_runs(self, sim):
        ev = sim.event()
        ev.succeed("v")
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["v"]

    def test_failed_event_raises_in_waiter(self, sim):
        ev = sim.event()

        def proc():
            with pytest.raises(ValueError):
                yield ev
            return "survived"

        p = sim.process(proc())
        sim.schedule(1, lambda: ev.fail(ValueError("boom")))
        sim.run()
        assert p.returned == "survived"

    def test_ok_property(self, sim):
        ev = sim.event()
        assert not ev.ok
        ev.succeed()
        assert ev.ok
        ev2 = sim.event()
        try:
            raise RuntimeError("x")
        except RuntimeError as e:
            ev2.fail(e)
        assert not ev2.ok


class TestProcesses:
    def test_timeout_advances_clock(self, sim):
        times = []

        def proc():
            yield Timeout(5)
            times.append(sim.now)
            yield Timeout(7.5)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [5.0, 12.5]

    def test_process_now_steps_inside_the_calling_callback(self, sim):
        """``process_now`` called from a callback at T runs the first
        step before it returns — ahead of a ``schedule(0.0, ...)`` the
        callback makes afterwards — and the process's ``Timeout(1.0)``
        resumes at T+1.  The express worm lane's demoted-tail resume
        relies on this."""
        log = []

        def proc():
            log.append(("step", sim.now))
            yield Timeout(1.0)
            log.append(("resumed", sim.now))

        def callback():
            sim.process_now(proc())
            log.append(("returned", sim.now))
            sim.schedule(0.0, lambda: log.append(("after", sim.now)))

        sim.schedule(5.0, callback)
        sim.run()
        assert log == [("step", 5.0), ("returned", 5.0), ("after", 5.0),
                       ("resumed", 6.0)]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-0.1)

    def test_crash_propagates_from_run(self, sim):
        def bad():
            yield Timeout(1)
            raise RuntimeError("firmware bug")

        sim.process(bad())
        with pytest.raises(SimulationError, match="firmware bug"):
            sim.run()

    def test_yield_garbage_is_error(self, sim):
        """Only a Timeout or an Event is waitable.  Anything else crashes
        the yielder, a Process too: a join fails loudly instead of
        hanging."""
        def child():
            yield Timeout(1)

        def bad(target):
            yield target

        for garbage in (42, sim.process(child())):
            sim.process(bad(garbage))
            with pytest.raises(SimulationError, match="non-waitable"):
                sim.run()
            sim._crashed.clear()  # a crash stops the run; run the next

    def test_interrupt_delivers_cause(self, sim):
        causes = []

        def waiter():
            try:
                yield Timeout(1000)
            except Interrupt as i:
                causes.append((sim.now, i.cause))
                return "interrupted"

        p = sim.process(waiter())

        def interrupter():
            yield Timeout(5)
            p.interrupt(cause="stop now")

        sim.process(interrupter())
        sim.run()
        # Interrupt delivered at t=5, long before the 1000 ns timeout
        # (whose stale timer pops harmlessly later).
        assert causes == [(5.0, "stop now")]
        assert p.returned == "interrupted"

    def test_interrupt_dead_process_is_error(self, sim):
        def quick():
            yield Timeout(1)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_immediate_return_process(self, sim):
        def noop():
            return "done"
            yield  # pragma: no cover

        p = sim.process(noop())
        sim.run()
        assert p.returned == "done"


class TestRunUntilEvent:
    def test_returns_value(self, sim):
        ev = sim.event()
        sim.schedule(12, lambda: ev.succeed("payload"))
        assert sim.run_until_event(ev) == "payload"
        assert sim.now == 12.0

    def test_deadlock_detected(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_event(ev)

    def test_failed_event_raises(self, sim):
        ev = sim.event()
        sim.schedule(1, lambda: ev.fail(ValueError("bad")))
        with pytest.raises(ValueError):
            sim.run_until_event(ev)


class _DispatchRecorder:
    """Stand-in profiler recording each dispatched callback's module."""

    def __init__(self) -> None:
        self.modules: list = []

    def attribute(self, _name: str) -> None:
        pass

    def dispatch(self, callback) -> None:
        self.modules.append(getattr(callback, "__module__", None))
        callback()


class TestProcessLifecycle:
    """A process is alive until its generator ends, keeps its return
    value after the end, and the engine's own enqueues stay attributable
    to the engine."""

    def test_alive_and_returned_before_and_after_the_end(self, sim):
        def child():
            yield Timeout(2)
            return "r"

        p = sim.process(child())
        assert p.alive and p.returned is None
        sim.run()
        assert not p.alive and p.returned == "r"

    def test_engine_enqueued_callbacks_are_defined_in_the_engine(self, sim):
        """Process start, timeout resume and event fan-out enqueue
        callables defined in repro.sim.engine: the perf benchmark charges
        a bare callback to its defining module, and a functools.partial
        would move that time to no layer at all."""
        ev = sim.event()

        def waiter():
            yield ev
            yield Timeout(3)

        def trigger():
            yield Timeout(1)
            ev.succeed()

        recorder = _DispatchRecorder()
        sim.profiler = recorder
        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        # Two starts, one fan-out, two timeout resumes.
        assert len(recorder.modules) == 5
        assert set(recorder.modules) == {"repro.sim.engine"}

"""Unit tests for Resource and Store."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Timeout
from repro.sim.resources import Resource, Store


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_immediate_grant_when_free(self, sim):
        res = Resource(sim, capacity=1)
        req = res.request(owner="a")
        assert req.triggered
        assert res.in_use == 1
        assert not res.free

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        granted = []

        def worker(name, hold):
            yield res.request(owner=name)
            granted.append((sim.now, name))
            yield Timeout(hold)
            res.release(owner=name)

        sim.process(worker("a", 10))
        sim.process(worker("b", 10))
        sim.process(worker("c", 10))
        sim.run()
        assert [g[1] for g in granted] == ["a", "b", "c"]
        assert [g[0] for g in granted] == [0.0, 10.0, 20.0]

    def test_capacity_two_overlaps(self, sim):
        res = Resource(sim, capacity=2)
        granted = []

        def worker(name):
            yield res.request(owner=name)
            granted.append((sim.now, name))
            yield Timeout(10)
            res.release(owner=name)

        for n in "abc":
            sim.process(worker(n))
        sim.run()
        times = dict((n, t) for t, n in granted)
        assert times["a"] == 0.0 and times["b"] == 0.0
        assert times["c"] == 10.0

    def test_release_without_hold_is_error(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release(owner="ghost")

    def test_try_acquire(self, sim):
        res = Resource(sim, capacity=1)
        assert res.try_acquire("a")
        assert not res.try_acquire("b")
        res.release("a")
        assert res.try_acquire("b")

    def test_try_acquire_respects_waiters(self, sim):
        res = Resource(sim, capacity=1)
        res.try_acquire("a")
        res.request(owner="waiting")
        res.release("a")
        # "waiting" got the grant; try_acquire must not jump the queue.
        assert res.holders() == ("waiting",)

    def test_cancel_pending_request(self, sim):
        res = Resource(sim, capacity=1)
        res.try_acquire("a")
        res.request(owner="b")
        assert res.queue_length == 1
        assert res.cancel("b")
        assert res.queue_length == 0
        assert not res.cancel("b")

    def test_queue_length_tracking(self, sim):
        res = Resource(sim, capacity=1)
        res.try_acquire("x")
        res.request(owner="y")
        res.request(owner="z")
        assert res.queue_length == 2


class TestResourceBusyTime:
    """``grants`` counts holds as they are granted; ``busy_ns`` adds a
    hold's length once, when it is released."""

    def test_hold_counted_at_release(self, sim):
        res = Resource(sim, capacity=2)
        res.request(owner="a")
        res.request(owner="b")
        sim.schedule(10.0, lambda: res.release("a"))
        sim.run()
        assert res.grants == 2
        assert res.busy_ns == 10.0  # "b" still holds: not counted yet
        sim.schedule(5.0, lambda: res.release("b"))
        sim.run()
        assert res.busy_ns == 25.0

    def test_backdated_hold(self, sim):
        """A hold made real after it began (a materialised express
        worm hold) counts from its stated start."""
        res = Resource(sim, capacity=1)
        sim.schedule(50.0, lambda: res.try_acquire("w", since=20.0))
        sim.schedule(80.0, lambda: res.release("w"))
        sim.run()
        assert res.grants == 1
        assert res.busy_ns == 60.0

    def test_handoff_to_waiter_at_release(self, sim):
        res = Resource(sim, capacity=1)
        granted = []

        def worker(name, start, hold):
            yield Timeout(start)
            yield res.request(owner=name)
            granted.append((name, sim.now))
            yield Timeout(hold)
            res.release(owner=name)

        sim.process(worker("a", 0.0, 10.0))
        sim.process(worker("b", 3.0, 15.0))
        sim.run()
        # "b" waited 3..10 and holds from the hand-off, not its request.
        assert granted == [("a", 0.0), ("b", 10.0)]
        assert res.grants == 2
        assert res.busy_ns == 10.0 + 15.0

    def test_failed_acquire_and_cancel_count_nothing(self, sim):
        res = Resource(sim, capacity=1)
        res.try_acquire("a")
        assert not res.try_acquire("b")
        res.request(owner="c")
        res.cancel("c")
        assert res.grants == 1 and res.busy_ns == 0.0


class TestStore:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("item")
        ev = store.get()
        assert ev.triggered and ev.value == "item"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        seen = []

        def getter():
            item = yield store.get()
            seen.append((sim.now, item))

        sim.process(getter())
        sim.schedule(15, lambda: store.put("late"))
        sim.run()
        assert seen == [(15.0, "late")]

    def test_fifo_order(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        out = [store.get().value for _ in range(5)]
        assert out == list(range(5))

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=1)
        store.put("first")
        ev = store.put("second")
        assert not ev.triggered
        assert store.full
        got = store.get()
        assert got.value == "first"
        assert ev.triggered  # second admitted after space freed
        assert store.get().value == "second"

    def test_try_put_try_get(self, sim):
        store = Store(sim, capacity=1)
        assert store.try_put(1)
        assert not store.try_put(2)
        ok, item = store.try_get()
        assert ok and item == 1
        ok, item = store.try_get()
        assert not ok and item is None

    def test_put_hands_directly_to_waiting_getter(self, sim):
        store = Store(sim, capacity=1)
        seen = []

        def getter():
            item = yield store.get()
            seen.append(item)

        sim.process(getter())
        sim.run()
        store.put("direct")
        sim.run()
        assert seen == ["direct"]
        assert len(store) == 0

    def test_peek(self, sim):
        store = Store(sim)
        with pytest.raises(SimulationError):
            store.peek()
        store.put("x")
        assert store.peek() == "x"
        assert len(store) == 1

"""Tests for the time-series sampler riding the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import Sampler
from repro.sim.engine import Simulator, Timeout


def _ramp_setup(interval: float = 10.0):
    """A sim with one gauge stepped by a process every 25 ns."""
    sim = Simulator()
    reg = MetricsRegistry()
    gauge = reg.gauge("level", component="nic[a]")

    def stepper():
        for i in range(1, 5):
            yield Timeout(25.0)
            gauge.set(i)

    sim.process(stepper(), name="stepper")
    sampler = Sampler(sim, reg, interval_ns=interval).start()
    return sim, reg, gauge, sampler


class TestSampling:
    def test_deterministic_sample_times(self):
        sim, _reg, _gauge, sampler = _ramp_setup(interval=10.0)
        sim.run(until=100.0)
        ts = sampler.get("level", component="nic[a]")
        assert ts.times() == [pytest.approx(10.0 * i) for i in range(11)]

    def test_two_runs_identical(self):
        runs = []
        for _ in range(2):
            sim, _reg, _gauge, sampler = _ramp_setup(interval=10.0)
            sim.run(until=100.0)
            ts = sampler.get("level", component="nic[a]")
            runs.append((ts.times(), ts.values()))
        assert runs[0] == runs[1]

    def test_samples_observe_post_state(self):
        # The gauge steps at t=25/50/...; the sample tick at t=50 runs
        # with low dispatch priority, so it must see the t=50 value.
        sim, _reg, _gauge, sampler = _ramp_setup(interval=25.0)
        sim.run(until=100.0)
        ts = sampler.get("level", component="nic[a]")
        assert ts.values() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_stop_halts_future_ticks(self):
        sim, _reg, _gauge, sampler = _ramp_setup(interval=10.0)
        sim.run(until=30.0)
        sampler.stop()
        assert not sampler.running
        n = sampler.n_ticks
        sim.run(until=100.0)
        assert sampler.n_ticks == n

    def test_drained_calendar_stops_sampling(self):
        # The model's last event is at t=100; run(until=...) reaches far
        # past it, but the tick at t=100 finds nothing else on the
        # calendar and is the last.
        sim, _reg, _gauge, sampler = _ramp_setup(interval=10.0)
        assert sim.run(until=1_000_000.0) == 1_000_000.0
        assert not sampler.running
        assert sampler.n_ticks == 11
        ts = sampler.get("level", component="nic[a]")
        assert ts.times()[-1] == pytest.approx(100.0)
        assert ts.values()[-1] == 4.0

    def test_late_registered_gauge_is_picked_up(self):
        sim = Simulator()
        reg = MetricsRegistry()
        reg.gauge("early")
        sampler = Sampler(sim, reg, interval_ns=10.0).start()

        def register_later():
            yield Timeout(35.0)
            reg.gauge("late").set(9.0)
            yield Timeout(25.0)  # keeps the calendar busy to t=60

        sim.process(register_later(), name="late")
        sim.run(until=60.0)
        late = sampler.get("late")
        # First sampled at the first tick after registration (t=40).
        assert late.times()[0] == pytest.approx(40.0)
        assert all(v == 9.0 for v in late.values())
        assert len(sampler.get("early")) == 7  # t=0..60

    def test_counters_are_not_sampled(self):
        sim = Simulator()
        reg = MetricsRegistry()
        reg.counter("packets")
        reg.gauge("depth")
        sampler = Sampler(sim, reg, interval_ns=10.0).start()
        sim.run(until=20.0)
        assert {ts.name for ts in sampler.all_series()} == {"depth"}

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Sampler(Simulator(), MetricsRegistry(), interval_ns=0.0)

    def test_get_missing_series_raises(self):
        sim, _reg, _gauge, sampler = _ramp_setup()
        with pytest.raises(KeyError):
            sampler.get("level", component="nic[other]")

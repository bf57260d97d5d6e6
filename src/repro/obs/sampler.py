"""Time-series sampling of gauges on a fixed simulated-time cadence.

A :class:`Sampler` rides the discrete-event engine: every
``interval_ns`` of *simulated* time it snapshots every gauge in the
registry into an append-only :class:`TimeSeries`.  This is what turns
instantaneous levels (ITB buffer occupancy, per-channel utilization,
send-queue depth) into the occupancy-over-time curves the paper's
analysis needs and that Perfetto renders as counter tracks.

Determinism: sample ticks are scheduled with a very low dispatch
priority, so a sample at time *t* observes the state *after* all model
events at *t* have run.  Under the seeded engine the sample times and
values are therefore fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.obs.registry import MetricsRegistry
    from repro.sim.engine import Simulator

__all__ = ["Sample", "Sampler", "TimeSeries"]

#: Dispatch priority of sample ticks — far below any model event, so a
#: tick at time t sees the post-state of t.
SAMPLE_PRIORITY = 1 << 30


@dataclass(frozen=True, slots=True)
class Sample:
    """One sampled point: simulated time (ns) and gauge value."""

    t_ns: float
    value: float


class TimeSeries:
    """Append-only series of :class:`Sample` points for one gauge."""

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.points: list[Sample] = []

    @property
    def component(self) -> str:
        """The ``component`` label (empty string when unlabeled)."""
        return self.labels.get("component", "")

    def append(self, t_ns: float, value: float) -> None:
        """Record one sample."""
        self.points.append(Sample(t_ns, value))

    def times(self) -> list[float]:
        """All sample times, in order."""
        return [p.t_ns for p in self.points]

    def values(self) -> list[float]:
        """All sample values, in order."""
        return [p.value for p in self.points]

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TimeSeries {self.name}{self.labels} n={len(self)}>"


class Sampler:
    """Periodic gauge snapshotter driven by the simulation clock.

    Parameters
    ----------
    sim:
        The engine whose clock paces the sampling.
    registry:
        Gauges are discovered from here *at every tick*, so gauges
        registered after :meth:`start` are picked up automatically.
    interval_ns:
        Simulated time between snapshots.

    The sampler stops by itself at the first tick that finds the
    calendar otherwise empty, so it never keeps a drained simulation
    running; work scheduled after that (from outside the calendar) is
    not sampled.
    """

    def __init__(
        self,
        sim: "Simulator",
        registry: "MetricsRegistry",
        interval_ns: float,
    ) -> None:
        if interval_ns <= 0:
            raise ValueError(f"interval_ns must be positive: {interval_ns}")
        self.sim = sim
        self.registry = registry
        self.interval_ns = float(interval_ns)
        self.series: dict[tuple[str, tuple], TimeSeries] = {}
        self.n_ticks = 0
        self._running = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "Sampler":
        """Begin sampling: first snapshot at the current sim time."""
        if self._running:
            return self
        self._running = True
        self.sim.schedule(0.0, self._tick, priority=SAMPLE_PRIORITY)
        return self

    def stop(self) -> None:
        """Stop scheduling further ticks (already-taken samples stay)."""
        self._running = False

    @property
    def running(self) -> bool:
        """Whether future ticks are scheduled."""
        return self._running

    # -- sampling ---------------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        self.sample_now()
        self.n_ticks += 1
        # A tick that finds nothing else on the calendar is the last:
        # no gauge can change again, and a run(until=...) would
        # otherwise sample the drained model every interval up to its
        # horizon.
        if not self.sim.pending:
            self._running = False
            return
        self.sim.schedule(self.interval_ns, self._tick,
                          priority=SAMPLE_PRIORITY)

    def sample_now(self) -> None:
        """Snapshot every gauge at the current sim time."""
        t = self.sim.now
        for gauge in self.registry.gauges():
            key = (gauge.name, gauge.label_key)
            ts = self.series.get(key)
            if ts is None:
                ts = TimeSeries(gauge.name, gauge.labels)
                self.series[key] = ts
            ts.append(t, float(gauge.value))

    # -- queries ----------------------------------------------------------

    def get(self, name: str, component: Optional[str] = None) -> TimeSeries:
        """Fetch one series by metric name (+ component label)."""
        for ts in self.series.values():
            if ts.name != name:
                continue
            if component is not None and ts.component != component:
                continue
            return ts
        raise KeyError(f"no sampled series {name!r} component={component!r}")

    def all_series(self) -> list[TimeSeries]:
        """Every series, sorted by name then labels."""
        return sorted(self.series.values(),
                      key=lambda s: (s.name, tuple(sorted(s.labels.items()))))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Sampler interval={self.interval_ns}ns"
                f" ticks={self.n_ticks} series={len(self.series)}>")

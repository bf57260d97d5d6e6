"""Metric primitives and the process-wide registry.

The paper's contribution is *measured overhead* — ≈125 ns of extra
receive-path code (Figure 7) and ≈1.3 µs per ejection/re-injection
(Figure 8) — so the reproduction needs first-class measurement
infrastructure, not five unconnected stat silos.  This module provides
the Prometheus-style primitives every component publishes through:

* :class:`Counter` — monotonically increasing total (packets sent,
  buffer flushes),
* :class:`Gauge` — instantaneous level (ITB buffer occupancy,
  send-queue depth),
* :class:`Histogram` — fixed-bucket distribution at nanosecond scale
  (packet latency).

All three may be *callback-backed* (``fn=``): the metric reads an
existing attribute on demand instead of requiring the owning component
to push updates.  This is how plain counters (``NicStats`` dataclass
fields, the channel lanes' busy-time counters read through
``ChannelUsage``) register into the registry without rewriting their
hot paths.

Metrics are identified by ``(name, labels)``.  The conventional label
is ``component`` (``nic[host2]``, ``channel[1->3]``).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

__all__ = [
    "Counter",
    "DEFAULT_NS_BUCKETS",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricError",
    "MetricsRegistry",
]

#: Default histogram bucket upper edges for nanosecond-scale latencies.
#: Spans the sub-µs firmware costs (Fig. 7's ~125 ns) through the
#: multi-µs end-to-end latencies of saturated load sweeps.
DEFAULT_NS_BUCKETS: tuple[float, ...] = (
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
    25_000.0, 50_000.0, 100_000.0, 250_000.0, 500_000.0,
    1_000_000.0, 2_500_000.0, 10_000_000.0,
)


class MetricError(ValueError):
    """Raised on metric misuse: kind collisions, negative counter
    increments, invalid bucket layouts."""


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Base class: a named, labeled observable value.

    Parameters
    ----------
    name:
        Metric family name, e.g. ``"nic_packets_sent"``.
    labels:
        Label set identifying this instance within the family,
        conventionally at least ``{"component": ...}``.
    help:
        One-line description carried into exporter output.
    fn:
        Optional zero-argument callable; when given, :attr:`value`
        reads ``fn()`` instead of internal state (callback-backed
        metric wrapping a pre-existing counter attribute).
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.labels: dict[str, str] = dict(labels or {})
        self.help = help
        self.fn = fn
        self._value = 0.0
        #: Canonical (sorted) label tuple, the registry key.  Labels
        #: identify a metric and never change after registration, so
        #: the key is computed exactly once — the sampler reads it on
        #: every gauge every tick.
        self.label_key: tuple[tuple[str, str], ...] = _label_key(self.labels)

    @property
    def component(self) -> str:
        """The ``component`` label (empty string when unlabeled)."""
        return self.labels.get("component", "")

    @property
    def value(self) -> float:
        """Current value (reads the backing callable when present)."""
        if self.fn is not None:
            return float(self.fn())
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}{self.labels}>"


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        self._value += amount


class Gauge(Metric):
    """An instantaneous level that can move both ways."""

    kind = "gauge"

    def set(self, value: float) -> None:
        """Set the level to ``value``."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Raise the level by ``amount``."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Lower the level by ``amount``."""
        self._value -= amount


class Histogram(Metric):
    """A fixed-bucket distribution (ns scale by default).

    Buckets are defined by ascending finite upper edges; an implicit
    ``+Inf`` bucket catches the overflow.  Per-bucket counts are stored
    non-cumulative; exporters produce the cumulative (Prometheus
    ``le=``) form.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_NS_BUCKETS,
    ) -> None:
        super().__init__(name, labels=labels, help=help)
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise MetricError(f"histogram {name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(edges, edges[1:])):
            raise MetricError(
                f"histogram {name!r} buckets must strictly ascend: {edges}")
        if any(not math.isfinite(b) for b in edges):
            raise MetricError(
                f"histogram {name!r} buckets must be finite (+Inf implicit)")
        self.buckets = edges
        self.bucket_counts = [0] * (len(edges) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        value = float(value)
        self.count += 1
        self.sum += value
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def value(self) -> float:
        """Histograms summarize as their observation count."""
        return float(self.count)

    @property
    def mean(self) -> float:
        """Mean of all observations (``nan`` when empty)."""
        return self.sum / self.count if self.count else float("nan")

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """``(upper_edge, cumulative_count)`` pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for edge, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((edge, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile, linearly interpolated in-bucket.

        Prometheus ``histogram_quantile`` semantics: the rank is
        located in the cumulative distribution and interpolated
        between the bucket's edges (the first bucket interpolates from
        zero).  Observations above the last finite edge clamp to it.
        Returns ``nan`` on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        running = 0
        for i, edge in enumerate(self.buckets):
            prev_running = running
            running += self.bucket_counts[i]
            if running >= rank:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                if self.bucket_counts[i] == 0:  # pragma: no cover
                    return edge
                frac = (rank - prev_running) / self.bucket_counts[i]
                return lower + (edge - lower) * frac
        return self.buckets[-1]  # overflow bucket clamps to last edge


class MetricsRegistry:
    """The process-wide metric store.

    ``counter`` / ``gauge`` / ``histogram`` are *get-or-create*:
    re-registering the same ``(name, labels)`` returns the existing
    instance, so hot paths can call them unconditionally.  Registering
    the same identity as a different kind raises :class:`MetricError`
    (a label collision across kinds is always a bug).
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple], Metric] = {}
        # Keyed index by metric kind, in registration order: the
        # sampler walks every gauge on every tick, and filtering +
        # re-sorting the full store there was the dominant cost of an
        # instrumented run (measured via the engine profiler).
        self._by_kind: dict[str, list[Metric]] = {}

    # -- registration -----------------------------------------------------

    def _get_or_create(
        self,
        cls: type,
        name: str,
        component: Optional[str],
        help: str,
        labels: Optional[Mapping[str, str]],
        **kwargs: Any,
    ) -> Any:
        all_labels: dict[str, str] = dict(labels or {})
        if component is not None:
            all_labels["component"] = component
        key = (name, _label_key(all_labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"metric {name!r} {all_labels} already registered as"
                    f" {existing.kind}, not {cls.kind}")
            return existing
        metric = cls(name, labels=all_labels, help=help, **kwargs)
        self._metrics[key] = metric
        self._by_kind.setdefault(metric.kind, []).append(metric)
        return metric

    def counter(
        self,
        name: str,
        component: Optional[str] = None,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        """Get or create a :class:`Counter`."""
        c = self._get_or_create(Counter, name, component, help, labels)
        if fn is not None and c.fn is None:
            c.fn = fn
        return c

    def gauge(
        self,
        name: str,
        component: Optional[str] = None,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        """Get or create a :class:`Gauge`."""
        g = self._get_or_create(Gauge, name, component, help, labels)
        if fn is not None and g.fn is None:
            g.fn = fn
        return g

    def histogram(
        self,
        name: str,
        component: Optional[str] = None,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_NS_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        """Get or create a :class:`Histogram`.

        Re-registering with different ``buckets`` raises — two callers
        disagreeing about the bucket layout would corrupt the series.
        """
        h = self._get_or_create(
            Histogram, name, component, help, labels, buckets=buckets)
        if h.buckets != tuple(float(b) for b in buckets):
            raise MetricError(
                f"histogram {name!r} re-registered with different buckets")
        return h

    # -- lookup and iteration ---------------------------------------------

    def get(
        self,
        name: str,
        component: Optional[str] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Metric:
        """Fetch a registered metric; ``KeyError`` when absent."""
        all_labels: dict[str, str] = dict(labels or {})
        if component is not None:
            all_labels["component"] = component
        return self._metrics[(name, _label_key(all_labels))]

    def collect(self, kind: Optional[str] = None) -> list[Metric]:
        """All metrics (optionally one kind), sorted by name then labels."""
        if kind is None:
            out = list(self._metrics.values())
        else:
            out = list(self._by_kind.get(kind, []))
        return sorted(out, key=lambda m: (m.name, m.label_key))

    def gauges(self) -> Iterator[Gauge]:
        """Iterate registered gauges (the sampler's working set).

        Registration order — stable and deterministic, served straight
        from the kind index so the per-tick cost is the iteration
        itself (sorted presentation is :meth:`collect`'s job).
        """
        return iter(self._by_kind.get("gauge", []))  # type: ignore[return-value]

    def names(self) -> list[str]:
        """Sorted distinct metric family names."""
        return sorted({name for name, _ in self._metrics})

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MetricsRegistry {len(self)} metrics>"

"""Unified telemetry: metrics registry, sampler, profiler, exporters.

The observability spine of the reproduction (see
``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.registry` — Counter/Gauge/Histogram primitives and
  the :class:`MetricsRegistry` every component publishes through,
* :mod:`repro.obs.sampler` — gauge snapshots on a simulated-time
  cadence, producing deterministic time series,
* :mod:`repro.obs.profiler` — engine-level event and wall-clock
  accounting per component,
* :mod:`repro.obs.exporters` — Prometheus text, JSON and chrome-trace
  formats, and the per-build file set that ``repro run <exp>
  --metrics-out DIR`` writes,
* :mod:`repro.obs.attach` — one call wires ``NicStats``,
  ``FabricUsage``, buffer occupancy, and firmware events into a fresh
  registry,
* :mod:`repro.obs.tracing` — causal span tracing across the GM/ITB
  stack and its ASCII waterfall (see ``docs/TRACING.md``),
* :mod:`repro.obs.critical_path` — per-trace critical-path latency
  attribution feeding the ``latency_breakdown_ns`` histograms.
"""

from repro.obs.attach import Telemetry, instrument_network
from repro.obs.critical_path import (
    CATEGORIES,
    Breakdown,
    breakdown_dump,
    breakdown_trace,
    observe_breakdowns,
)
from repro.obs.exporters import (
    parse_prometheus_text,
    to_json,
    to_prometheus_text,
)
from repro.obs.profiler import Profiler, component_kind
from repro.obs.registry import (
    DEFAULT_NS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricError,
    MetricsRegistry,
)
from repro.obs.sampler import Sample, Sampler, TimeSeries
from repro.obs.tracing import (
    PacketTrace,
    Span,
    SpanTracer,
    configure,
    configured_sample_every,
    disable,
    load_dump,
    span_tree,
    tree_signature,
    waterfall_lines,
)

__all__ = [
    "Breakdown",
    "CATEGORIES",
    "Counter",
    "DEFAULT_NS_BUCKETS",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricError",
    "MetricsRegistry",
    "PacketTrace",
    "Profiler",
    "Sample",
    "Sampler",
    "Span",
    "SpanTracer",
    "Telemetry",
    "TimeSeries",
    "breakdown_dump",
    "breakdown_trace",
    "component_kind",
    "configure",
    "configured_sample_every",
    "disable",
    "instrument_network",
    "load_dump",
    "observe_breakdowns",
    "parse_prometheus_text",
    "span_tree",
    "to_json",
    "to_prometheus_text",
    "tree_signature",
    "waterfall_lines",
]

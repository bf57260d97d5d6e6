"""Unified telemetry: metrics registry, sampler, profiler, exporters.

The observability spine of the reproduction (see
``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.registry` — Counter/Gauge/Histogram primitives and
  the :class:`MetricsRegistry` every component publishes through,
* :mod:`repro.obs.sampler` — gauge snapshots on a simulated-time
  cadence, producing deterministic time series,
* :mod:`repro.obs.profiler` — engine-level event and wall-clock
  accounting per component,
* :mod:`repro.obs.exporters` — Prometheus text / JSON / CSV formats
  (chrome-trace counter events live in
  :mod:`repro.harness.chrome_trace`),
* :mod:`repro.obs.attach` — one call wires ``NicStats``,
  ``FabricUsage``, buffer occupancy, and firmware events into a fresh
  registry,
* :mod:`repro.obs.tracing` — causal span tracing across the GM/ITB
  stack and its ASCII waterfall (see ``docs/TRACING.md``),
* :mod:`repro.obs.critical_path` — per-trace critical-path latency
  attribution feeding the ``latency_breakdown_ns`` histograms,
* :mod:`repro.obs.run` — the ``repro obs`` CLI workload runner.
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
    parse_series_csv,
    series_to_csv,
    to_json,
    to_prometheus_text,
    write_json,
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
from repro.obs.run import ObsResult, export_all, run_obs
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
    "ObsResult",
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
    "export_all",
    "instrument_network",
    "load_dump",
    "observe_breakdowns",
    "parse_prometheus_text",
    "parse_series_csv",
    "run_obs",
    "series_to_csv",
    "span_tree",
    "to_json",
    "to_prometheus_text",
    "tree_signature",
    "waterfall_lines",
    "write_json",
]

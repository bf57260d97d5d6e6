"""Exporters: Prometheus text, JSON, and CSV views of the telemetry.

One registry, several wire formats:

* :func:`to_prometheus_text` — the Prometheus text exposition format
  (``# TYPE`` headers, ``{label="value"}`` sets, cumulative ``le=``
  histogram buckets), with :func:`parse_prometheus_text` as the
  round-trip inverse used by the tests;
* :func:`to_json` — one JSON document holding metrics, sampled time
  series, and profiler output;
* :func:`series_to_csv` / :func:`parse_series_csv` — long-format CSV
  (``time_ns,metric,component,value``) of the sampled series, for
  spreadsheets and pandas;
* :func:`telemetry_files` — all of the above for one observed build,
  plus its chrome trace and span dump, as the file texts that
  ``repro run <exp> --metrics-out DIR`` writes per build.

Chrome-trace counter ("C") events are produced by
:func:`repro.harness.chrome_trace.to_counter_events`, next to the rest
of the Trace-Event-Format code.
"""

from __future__ import annotations

import json
import math
import re
from typing import TYPE_CHECKING, Iterable, Optional

from repro.obs.registry import Histogram

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.obs.attach import Telemetry
    from repro.obs.profiler import Profiler
    from repro.obs.registry import MetricsRegistry
    from repro.obs.sampler import Sampler, TimeSeries
    from repro.obs.tracing import SpanTracer

__all__ = [
    "parse_prometheus_text",
    "parse_series_csv",
    "sanitize_metric_name",
    "series_to_csv",
    "telemetry_files",
    "to_json",
    "to_prometheus_text",
]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$")
_PROM_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def sanitize_metric_name(name: str) -> str:
    """Coerce a name into the Prometheus charset (invalid chars → _)."""
    if _NAME_OK.match(name):
        return name
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not re.match(r"[a-zA-Z_:]", out):
        out = "_" + out
    return out


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _fmt_labels(labels: dict[str, str], extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{sanitize_metric_name(k)}="{_escape_label_value(str(v))}"'
        for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------

def to_prometheus_text(registry: "MetricsRegistry") -> str:
    """Render every registered metric in Prometheus text format."""
    lines: list[str] = []
    seen_headers: set[str] = set()
    for metric in registry.collect():
        name = sanitize_metric_name(metric.name)
        if name not in seen_headers:
            seen_headers.add(name)
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, Histogram):
            for edge, cum in metric.cumulative_counts():
                le = "+Inf" if math.isinf(edge) else _fmt_value(edge)
                lines.append(
                    f"{name}_bucket"
                    f"{_fmt_labels(metric.labels, {'le': le})}"
                    f" {cum}")
            lines.append(
                f"{name}_sum{_fmt_labels(metric.labels)}"
                f" {_fmt_value(metric.sum)}")
            lines.append(
                f"{name}_count{_fmt_labels(metric.labels)} {metric.count}")
        else:
            lines.append(
                f"{name}{_fmt_labels(metric.labels)}"
                f" {_fmt_value(metric.value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse Prometheus text back to ``{(name, labels): value}``.

    The inverse of :func:`to_prometheus_text` for round-trip tests and
    quick scripting; comment lines are skipped.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _PROM_LINE.match(line)
        if not m:
            raise ValueError(f"unparseable exposition line: {line!r}")
        labels: dict[str, str] = {}
        if m.group("labels"):
            for k, v in _PROM_LABEL.findall(m.group("labels")):
                labels[k] = (v.replace(r"\n", "\n")
                             .replace(r"\"", '"')
                             .replace(r"\\", "\\"))
        value_str = m.group("value")
        if value_str == "+Inf":
            value = math.inf
        elif value_str == "-Inf":
            value = -math.inf
        else:
            value = float(value_str)
        out[(m.group("name"), tuple(sorted(labels.items())))] = value
    return out


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def _metric_to_dict(metric) -> dict:
    d: dict = {
        "name": metric.name,
        "kind": metric.kind,
        "labels": dict(metric.labels),
    }
    if isinstance(metric, Histogram):
        d["count"] = metric.count
        d["sum"] = metric.sum
        d["buckets"] = [
            {"le": ("+Inf" if math.isinf(edge) else edge), "count": cum}
            for edge, cum in metric.cumulative_counts()
        ]
    else:
        d["value"] = metric.value
    return d


def _series_to_dict(ts: "TimeSeries") -> dict:
    return {
        "name": ts.name,
        "labels": dict(ts.labels),
        "times_ns": ts.times(),
        "values": ts.values(),
    }


def _profiler_to_dict(profiler: "Profiler") -> dict:
    return {
        "events_total": profiler.events_total,
        "wall_ns_total": profiler.wall_ns_total,
        "events_by_component": dict(
            sorted(profiler.events_by_component.items())),
        "wall_ns_by_component": dict(
            sorted(profiler.wall_ns_by_component.items())),
        "by_kind": profiler.by_kind(),
    }


def to_json(
    registry: Optional["MetricsRegistry"] = None,
    sampler: Optional["Sampler"] = None,
    profiler: Optional["Profiler"] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Bundle metrics + series + profile into one JSON-able dict."""
    doc: dict = {"format": "repro-telemetry/1"}
    if registry is not None:
        doc["metrics"] = [_metric_to_dict(m) for m in registry.collect()]
    if sampler is not None:
        doc["series"] = [_series_to_dict(s) for s in sampler.all_series()]
        doc["sample_interval_ns"] = sampler.interval_ns
    if profiler is not None:
        doc["profile"] = _profiler_to_dict(profiler)
    if extra:
        doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# CSV (long format)
# ---------------------------------------------------------------------------

def series_to_csv(series: Iterable["TimeSeries"]) -> str:
    """Long-format CSV of sampled series.

    Columns: ``time_ns,metric,component,value``.  Component strings
    are quoted (they contain brackets/arrows, never quotes).
    """
    lines = ["time_ns,metric,component,value"]
    for ts in series:
        for p in ts.points:
            lines.append(
                f'{_fmt_value(p.t_ns)},{ts.name},"{ts.component}",'
                f"{_fmt_value(p.value)}")
    return "\n".join(lines) + "\n"


def parse_series_csv(text: str) -> list[tuple[float, str, str, float]]:
    """Parse :func:`series_to_csv` output back to tuples.

    Returns ``(time_ns, metric, component, value)`` rows in file
    order — the round-trip inverse used by the exporter tests.
    """
    rows: list[tuple[float, str, str, float]] = []
    lines = text.strip().splitlines()
    if not lines or lines[0] != "time_ns,metric,component,value":
        raise ValueError("not a repro series CSV (bad header)")
    for line in lines[1:]:
        t_str, metric, rest = line.split(",", 2)
        component, value_str = rest.rsplit(",", 1)
        rows.append((float(t_str), metric, component.strip('"'),
                     float(value_str)))
    return rows


# ---------------------------------------------------------------------------
# one observed build
# ---------------------------------------------------------------------------

def telemetry_files(telemetry: "Telemetry",
                    tracer: Optional["SpanTracer"] = None) -> dict[str, str]:
    """Every exporter's view of one observed build, as file name → text.

    ``metrics.prom`` (Prometheus text), ``telemetry.json`` (metrics,
    sampled series and engine profile), ``series.csv`` (the sampled
    series, long format) and ``trace.json`` (a chrome trace: counter
    tracks, plus async span tracks and flow arrows when ``tracer`` is
    given); a traced build adds ``spans.json``, its canonical span
    dump.  Every text but ``telemetry.json``, whose profile holds wall
    times, is a pure function of the simulation.
    """
    from repro.harness.chrome_trace import chrome_trace_text

    sampler = telemetry.sampler
    series = sampler.all_series() if sampler is not None else []
    files = {
        "metrics.prom": to_prometheus_text(telemetry.registry),
        "telemetry.json": json.dumps(to_json(
            registry=telemetry.registry, sampler=sampler,
            profiler=telemetry.profiler), indent=1),
        "series.csv": series_to_csv(series),
        "trace.json": chrome_trace_text(
            series, tracer.spans if tracer is not None else ()),
    }
    if tracer is not None:
        files["spans.json"] = tracer.dump_json()
    return files

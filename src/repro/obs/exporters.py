"""Exporters: the files an observed build writes, and their formats.

One registry, three wire formats:

* :func:`to_prometheus_text` — the Prometheus text exposition format
  (``# TYPE`` headers, ``{label="value"}`` sets, cumulative ``le=``
  histogram buckets), with :func:`parse_prometheus_text` as the
  round-trip inverse used by the tests;
* :func:`to_json` — one JSON document holding metrics, sampled time
  series, and profiler output;
* :func:`chrome_trace_text` — a Chrome Trace Event Format document:
  one counter track per sampled series (:func:`to_counter_events`)
  and, for a traced build, async span rows plus cross-component flow
  arrows (:func:`spans_to_chrome_trace`).

:func:`write_telemetry` writes all of them for one observed build,
plus its span dump when traced: the directory that ``repro run <exp>
--metrics-out DIR`` gives every build.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.obs.registry import Histogram

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.obs.attach import Telemetry
    from repro.obs.profiler import Profiler
    from repro.obs.registry import MetricsRegistry
    from repro.obs.sampler import TimeSeries
    from repro.obs.tracing import SpanTracer

__all__ = [
    "chrome_trace_text",
    "parse_prometheus_text",
    "sanitize_metric_name",
    "spans_to_chrome_trace",
    "to_counter_events",
    "to_json",
    "to_prometheus_text",
    "track_name",
    "write_telemetry",
]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$")
_PROM_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
#: The one Trace-Event "process" every row and track belongs to.
_PID = "repro"


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


def _compact(doc) -> str:
    # No indent, so json's C encoder renders the document.
    return json.dumps(doc, separators=(",", ":"))


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


def to_json(telemetry: "Telemetry") -> dict:
    """Bundle a build's metrics, sampled series (when it has a sampler)
    and engine profile (when it has a profiler) into one JSON-able
    dict."""
    doc: dict = {
        "format": "repro-telemetry/1",
        "metrics": [_metric_to_dict(m) for m in telemetry.registry.collect()],
    }
    sampler = telemetry.sampler
    if sampler is not None:
        doc["series"] = [_series_to_dict(s) for s in sampler.all_series()]
        doc["sample_interval_ns"] = sampler.interval_ns
    if telemetry.profiler is not None:
        doc["profile"] = _profiler_to_dict(telemetry.profiler)
    return doc


# ---------------------------------------------------------------------------
# Chrome trace
# ---------------------------------------------------------------------------

def track_name(name: str, labels: dict[str, str]) -> str:
    """The counter track of one sampled series: the metric ``name``,
    its ``component`` label, then every other label as ``key=value``.

    Every label takes part, so parallel cables and the lanes of one
    channel, which share a ``component``, get a track each.
    """
    parts = [name]
    if labels.get("component"):
        parts.append(labels["component"])
    parts.extend(f"{key}={value}" for key, value in sorted(labels.items())
                 if key != "component")
    return " ".join(parts)


def to_counter_events(series: Iterable["TimeSeries"]) -> list[dict]:
    """Convert sampled gauge series to counter ("C") phase events.

    Each :class:`~repro.obs.sampler.TimeSeries` becomes one counter
    track (:func:`track_name`).  A track gets an event at its first
    sample and then only where the value changes: a Perfetto counter
    holds its value until the next event, so the track draws the same
    step function as the full series.
    """
    events: list[dict] = []
    for ts in series:
        name = track_name(ts.name, ts.labels)
        last = None
        for point in ts.points:
            if point.value == last:
                continue
            last = point.value
            events.append({
                "name": name,
                "ph": "C",
                "ts": point.t_ns / 1000.0,
                "pid": _PID,
                "args": {"value": point.value},
            })
    return events


def spans_to_chrome_trace(spans: Iterable[Union[dict, object]]) -> list[dict]:
    """Convert causal spans to async-span + flow Trace-Event dicts.

    Every closed :class:`~repro.obs.tracing.Span` (or its
    ``to_dict()`` form) becomes an async begin/end pair (phases
    ``"b"``/``"e"``) on its component's row, id'd
    ``"<trace>.<span>"`` so nesting within one trace groups in
    Perfetto.  Each parent→child edge *across components* additionally
    emits a flow arrow (phases ``"s"``/``"f"`` with ``bp: "e"``) so the
    hand-off from GM host to firmware to wire renders as connected
    arrows across rows.
    """
    recs = [s if isinstance(s, dict) else s.to_dict() for s in spans]
    by_id = {r["span"]: r for r in recs}
    events: list[dict] = []
    flow_seq = 0
    for r in recs:
        if r["end"] is None:
            continue
        span_id = f"{r['trace']}.{r['span']}"
        tid = r["component"] or "untracked"
        common = {"cat": "span", "id": span_id, "pid": _PID, "tid": tid}
        events.append({
            "name": r["name"], "ph": "b", "ts": r["start"] / 1000.0,
            "args": {"status": r["status"],
                     **{k: repr(v) for k, v in r["attrs"].items()}},
            **common,
        })
        events.append({
            "name": r["name"], "ph": "e", "ts": r["end"] / 1000.0,
            **common,
        })
        parent = by_id.get(r["parent"])
        if (parent is None or parent["end"] is None
                or parent["component"] == r["component"]):
            continue
        # Cross-component hand-off: a flow arrow from the parent's row
        # to the child's start.
        flow_seq += 1
        flow_id = f"flow.{r['trace']}.{flow_seq}"
        events.append({
            "name": f"{parent['name']}->{r['name']}", "ph": "s",
            "cat": "flow", "id": flow_id, "ts": r["start"] / 1000.0,
            "pid": _PID, "tid": parent["component"] or "untracked",
        })
        events.append({
            "name": f"{parent['name']}->{r['name']}", "ph": "f",
            "bp": "e",
            "cat": "flow", "id": flow_id, "ts": r["start"] / 1000.0,
            "pid": _PID, "tid": tid,
        })
    return events


def chrome_trace_text(
    series: Iterable["TimeSeries"] = (),
    spans: Iterable[Union[dict, object]] = (),
) -> str:
    """A ``chrome://tracing``- and Perfetto-loadable JSON document.

    ``series`` (sampled telemetry time series) become counter tracks
    via :func:`to_counter_events`; ``spans`` (causal spans from
    :mod:`repro.obs.tracing`, or their dump dicts) become async spans
    plus cross-component flow arrows via :func:`spans_to_chrome_trace`.
    """
    events = to_counter_events(series)
    events.extend(spans_to_chrome_trace(spans))
    return _compact({"traceEvents": events, "displayTimeUnit": "ns"})


# ---------------------------------------------------------------------------
# one observed build
# ---------------------------------------------------------------------------

def write_telemetry(directory: Union[str, Path], telemetry: "Telemetry",
                    tracer: Optional["SpanTracer"] = None) -> None:
    """Write one observed build's files into a new ``directory``.

    ``metrics.prom`` (Prometheus text), ``telemetry.json`` (metrics,
    sampled series and engine profile) and ``trace.json`` (a chrome
    trace: counter tracks, plus span rows and flow arrows when
    ``tracer`` is given); a traced build adds ``spans.json``, its
    canonical span dump.  Every file but ``telemetry.json``, whose
    profile holds wall times, is a pure function of the simulation.
    Each file is rendered and written in turn, so at most one file's
    text is held at a time.
    """
    out = Path(directory)
    out.mkdir(parents=True)
    series = (telemetry.sampler.all_series()
              if telemetry.sampler is not None else [])
    (out / "metrics.prom").write_text(to_prometheus_text(telemetry.registry))
    (out / "telemetry.json").write_text(_compact(to_json(telemetry)))
    (out / "trace.json").write_text(chrome_trace_text(
        series, tracer.spans if tracer is not None else ()))
    if tracer is not None:
        (out / "spans.json").write_text(tracer.dump_json())

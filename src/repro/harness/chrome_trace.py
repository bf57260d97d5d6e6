"""Export telemetry as Chrome tracing JSON.

Any Chromium-based browser (``chrome://tracing``) and Perfetto load
the Trace Event Format: a JSON array of events with microsecond
timestamps, one row per named "thread".  Mapping our components
(GM hosts, MCPs, wires) to rows gives an interactive zoomable view of
a simulation — far easier to scan than a textual dump when debugging
contention.

Two event mappings:

* causal spans (from a :class:`repro.obs.tracing.SpanTracer`) become
  *async* begin/end pairs (phases ``"b"``/``"e"``) on their
  component's row, plus *flow* arrows (phases ``"s"``/``"f"``) for
  every hand-off across components, via
  :func:`spans_to_chrome_trace`,
* sampled telemetry time series (from a
  :class:`repro.obs.sampler.Sampler`) become *counter* events (phase
  ``"C"``), which Perfetto renders as occupancy/utilization tracks
  alongside the spans, via :func:`to_counter_events`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Union

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.obs.sampler import TimeSeries

__all__ = ["spans_to_chrome_trace", "to_counter_events",
           "write_chrome_trace"]


def to_counter_events(series: Iterable["TimeSeries"],
                      pid: str = "repro") -> list[dict]:
    """Convert sampled gauge series to counter ("C") phase events.

    Each :class:`~repro.obs.sampler.TimeSeries` becomes one counter
    track named ``metric component`` whose value steps at every sample
    point; Perfetto draws these as filled area charts alongside the
    spans.
    """
    events: list[dict] = []
    for ts in series:
        component = ts.component
        name = f"{ts.name} {component}" if component else ts.name
        for point in ts.points:
            events.append({
                "name": name,
                "ph": "C",
                "ts": point.t_ns / 1000.0,
                "pid": pid,
                "args": {"value": point.value},
            })
    return events


def spans_to_chrome_trace(spans: Iterable[Union[dict, object]],
                          pid: str = "repro") -> list[dict]:
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
    recs = []
    for s in spans:
        recs.append(s if isinstance(s, dict) else s.to_dict())
    by_id = {r["span"]: r for r in recs}
    events: list[dict] = []
    flow_seq = 0
    for r in recs:
        if r["end"] is None:
            continue
        span_id = f"{r['trace']}.{r['span']}"
        tid = r["component"] or "untracked"
        common = {"cat": "span", "id": span_id, "pid": pid, "tid": tid}
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
            "pid": pid, "tid": parent["component"] or "untracked",
        })
        events.append({
            "name": f"{parent['name']}->{r['name']}", "ph": "f",
            "bp": "e",
            "cat": "flow", "id": flow_id, "ts": r["start"] / 1000.0,
            "pid": pid, "tid": tid,
        })
    return events


def write_chrome_trace(
    path: Union[str, Path],
    series: Iterable["TimeSeries"] = (),
    spans: Iterable[Union[dict, object]] = (),
) -> Path:
    """Write a ``chrome://tracing``-loadable JSON file.

    ``series`` (sampled telemetry time series) become counter tracks
    via :func:`to_counter_events`; ``spans`` (causal spans from
    :mod:`repro.obs.tracing`, or their dump dicts) become async spans
    plus cross-component flow arrows via :func:`spans_to_chrome_trace`.
    """
    path = Path(path)
    events = to_counter_events(series)
    events.extend(spans_to_chrome_trace(spans))
    payload = {"traceEvents": events, "displayTimeUnit": "ns"}
    path.write_text(json.dumps(payload, indent=1))
    return path

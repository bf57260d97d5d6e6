"""Tests for the Chrome-tracing export of spans and counter series."""

from __future__ import annotations

import json
from collections import defaultdict

import pytest

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.paths import fig6_paths
from repro.obs.exporters import chrome_trace_text, spans_to_chrome_trace
from repro.obs.tracing import SpanTracer
from tests.conftest import send_traced


def traced_run(firmware="itb", size=256):
    """One firmware-level packet over the Fig. 8 ITB path, traced."""
    cfg = NetworkConfig(
        firmware=firmware, routing="updown",
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    net = build_network("fig6", config=cfg)
    paths = fig6_paths(net.topo, net.roles)
    tp, tracer = send_traced(net, net.roles["host1"], net.roles["host2"],
                             size=size, route=paths.itb5)
    return tp, tracer


class TestConversion:
    def test_timestamps_in_microseconds(self):
        tracer = SpanTracer()
        tracer.begin("message", 2_000.0).close(3_500.0)
        begin, end = spans_to_chrome_trace(tracer.spans)
        assert begin["ts"] == pytest.approx(2.0)
        assert end["ts"] == pytest.approx(3.5)

    def test_components_become_rows(self):
        _tp, tracer = traced_run()
        tids = {e["tid"] for e in spans_to_chrome_trace(tracer.spans)}
        assert {"mcp[host1]", "mcp[itb]", "mcp[host2]"} <= tids
        assert any(t.startswith("wire[") for t in tids)

    def test_packet_duration_pair_balanced(self):
        """The packet's message root spans send to delivery as one
        begin/end pair."""
        tp, tracer = traced_run()
        (root,) = tracer.roots()
        events = spans_to_chrome_trace(tracer.spans)
        span_id = f"{root.trace_id}.{root.span_id}"
        begins = [e for e in events if e["ph"] == "b" and e["id"] == span_id]
        ends = [e for e in events if e["ph"] == "e" and e["id"] == span_id]
        assert len(begins) == 1 and len(ends) == 1
        assert begins[0]["ts"] == pytest.approx(tp.t_api_send / 1000.0)
        assert ends[0]["ts"] == pytest.approx(tp.t_deliver / 1000.0)

    def test_dropped_packet_closes_span(self):
        """A packet dropped by the original firmware (unknown ITB
        type) still gets balanced spans, its attempt marked dropped."""
        tp, tracer = traced_run(firmware="original", size=64)
        assert tp.dropped
        (attempt,) = [s for s in tracer.spans if s.name == "attempt"]
        assert attempt.status == "unknown-type"
        events = spans_to_chrome_trace(tracer.spans)
        begins = [e["id"] for e in events if e["ph"] == "b"]
        ends = [e["id"] for e in events if e["ph"] == "e"]
        assert len(begins) == len(tracer.spans)
        assert sorted(begins) == sorted(ends)


def span_traced_run():
    """A reliable GM send with the causal span tracer attached."""
    cfg = NetworkConfig(
        firmware="itb", routing="updown", reliable=True,
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    net = build_network("fig6", config=cfg)
    tracer = SpanTracer()
    net.fabric.tracer = tracer
    a, b = net.gm("host1"), net.gm("host2")
    got = []

    def rx():
        while True:
            msg = yield b.receive()
            got.append(msg.tag)

    net.sim.process(rx(), name="rx")
    a.send(b.host, 512, tag=1)
    net.sim.run(until=10_000_000)
    assert got == [1]
    return net, tracer


class TestSpanEvents:
    """Round-trip invariants of the causal-span export: every async
    begin has exactly one matching end under the same id, timestamps
    are monotonic per track, and cross-component hand-offs pair one
    flow start with one flow finish."""

    def test_async_pairs_matched_by_id(self):
        _net, tracer = span_traced_run()
        events = spans_to_chrome_trace(tracer.spans)
        begins = defaultdict(int)
        ends = defaultdict(int)
        for e in events:
            if e.get("cat") != "span":
                continue
            if e["ph"] == "b":
                begins[e["id"]] += 1
            elif e["ph"] == "e":
                ends[e["id"]] += 1
        assert begins, "no span events exported"
        assert begins == ends
        assert all(n == 1 for n in begins.values())

    def test_pair_timestamps_ordered(self):
        _net, tracer = span_traced_run()
        events = spans_to_chrome_trace(tracer.spans)
        by_id = defaultdict(dict)
        for e in events:
            if e.get("cat") == "span":
                by_id[e["id"]][e["ph"]] = e["ts"]
        for span_id, phases in by_id.items():
            assert phases["b"] <= phases["e"], span_id

    def test_timestamps_monotonic_per_track(self):
        """Within one component row, begin events appear in
        nondecreasing timestamp order (spans are recorded in creation
        order, which follows simulated time)."""
        _net, tracer = span_traced_run()
        events = spans_to_chrome_trace(tracer.spans)
        per_tid = defaultdict(list)
        for e in events:
            if e.get("cat") == "span" and e["ph"] == "b":
                per_tid[e["tid"]].append(e["ts"])
        assert per_tid
        for tid, stamps in per_tid.items():
            assert stamps == sorted(stamps), tid

    def test_flow_events_pair_across_components(self):
        _net, tracer = span_traced_run()
        events = spans_to_chrome_trace(tracer.spans)
        starts = {e["id"]: e for e in events
                  if e.get("cat") == "flow" and e["ph"] == "s"}
        finishes = {e["id"]: e for e in events
                    if e.get("cat") == "flow" and e["ph"] == "f"}
        assert starts, "no cross-component hand-offs exported"
        assert set(starts) == set(finishes)
        for flow_id, s in starts.items():
            f = finishes[flow_id]
            assert s["ts"] == f["ts"]
            assert s["tid"] != f["tid"]  # genuinely cross-component
            assert f["bp"] == "e"

    def test_open_spans_skipped(self):
        tracer = SpanTracer()
        tracer.begin("message", 0.0)  # never closed
        assert spans_to_chrome_trace(tracer.spans) == []

    def test_full_export_includes_counters_and_spans(self):
        """chrome_trace_text merges counter, async-span, and flow
        events into one loadable document."""
        from repro.obs.attach import instrument_network

        cfg = NetworkConfig(
            firmware="itb", routing="updown", reliable=True,
            timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
        )
        net = build_network("fig6", config=cfg)
        tracer = SpanTracer()
        net.fabric.tracer = tracer
        telemetry = instrument_network(net, sample_interval_ns=1_000.0,
                                       profile=False)
        a, b = net.gm("host1"), net.gm("host2")

        def rx():
            yield b.receive()

        net.sim.process(rx(), name="rx")
        a.send(b.host, 512, tag=1)
        net.sim.run(until=20_000.0)
        telemetry.stop()
        series = telemetry.sampler.all_series()
        blob = json.loads(chrome_trace_text(series=series,
                                            spans=tracer.spans))
        phases = {e["ph"] for e in blob["traceEvents"]}
        assert phases == {"C", "b", "e", "s", "f"}


class TestFileOutput:
    def test_written_file_is_loadable_json(self):
        _tp, tracer = traced_run()
        blob = json.loads(chrome_trace_text(spans=tracer.spans))
        assert "traceEvents" in blob
        assert blob["displayTimeUnit"] == "ns"
        assert len(blob["traceEvents"]) > 0

    def test_empty_trace_ok(self):
        blob = json.loads(chrome_trace_text())
        assert blob["traceEvents"] == []

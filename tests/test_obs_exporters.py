"""Round-trip tests for every telemetry exporter."""

from __future__ import annotations

import json

import pytest

from repro.harness.chrome_trace import to_counter_events
from repro.obs.attach import Telemetry
from repro.obs.exporters import (
    parse_prometheus_text,
    parse_series_csv,
    sanitize_metric_name,
    series_to_csv,
    telemetry_files,
    to_json,
    to_prometheus_text,
)
from repro.obs.profiler import Profiler
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import Sampler
from repro.sim.engine import Simulator


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("nic_packets_sent", component="nic[host1]").inc(42)
    reg.counter("nic_packets_sent", component="nic[host2]").inc(7)
    reg.gauge("nic_send_queue_depth", component="nic[host1]").set(3)
    h = reg.histogram("packet_latency_ns", buckets=(100.0, 1000.0))
    for v in (50.0, 500.0, 5000.0):
        h.observe(v)
    return reg


def _sampled(reg: MetricsRegistry) -> Sampler:
    sim = Simulator()
    sampler = Sampler(sim, reg, interval_ns=10.0).start()
    sim.schedule(30.0, lambda: None)  # model work to t=30: four ticks
    sim.run(until=30.0)
    return sampler


class TestPrometheus:
    def test_round_trip_values_match(self):
        reg = _populated_registry()
        parsed = parse_prometheus_text(to_prometheus_text(reg))
        key = ("nic_packets_sent", (("component", "nic[host1]"),))
        assert parsed[key] == 42.0
        key2 = ("nic_packets_sent", (("component", "nic[host2]"),))
        assert parsed[key2] == 7.0
        gkey = ("nic_send_queue_depth", (("component", "nic[host1]"),))
        assert parsed[gkey] == 3.0

    def test_histogram_export_is_cumulative(self):
        reg = _populated_registry()
        parsed = parse_prometheus_text(to_prometheus_text(reg))
        assert parsed[("packet_latency_ns_bucket", (("le", "100"),))] == 1
        assert parsed[("packet_latency_ns_bucket", (("le", "1000"),))] == 2
        assert parsed[("packet_latency_ns_bucket", (("le", "+Inf"),))] == 3
        assert parsed[("packet_latency_ns_count", ())] == 3
        assert parsed[("packet_latency_ns_sum", ())] == pytest.approx(5550.0)

    def test_type_and_help_headers_present(self):
        reg = _populated_registry()
        text = to_prometheus_text(reg)
        assert "# TYPE nic_packets_sent counter" in text
        assert "# TYPE nic_send_queue_depth gauge" in text
        assert "# TYPE packet_latency_ns histogram" in text

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("weird", component='q"uo\\te').inc(1)
        parsed = parse_prometheus_text(to_prometheus_text(reg))
        assert parsed[("weird", (("component", 'q"uo\\te'),))] == 1.0

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("good_name") == "good_name"
        assert sanitize_metric_name("bad-name.1") == "bad_name_1"
        assert sanitize_metric_name("1leading") == "_1leading"


class TestJson:
    def test_document_round_trips_through_json(self):
        reg = _populated_registry()
        sampler = _sampled(reg)
        prof = Profiler()
        prof.events_by_component["send[a]"] = 5
        prof.events_total = 5
        files = telemetry_files(
            Telemetry(registry=reg, sampler=sampler, profiler=prof))
        doc = json.loads(files["telemetry.json"])
        assert doc["format"] == "repro-telemetry/1"
        by_name = {(m["name"], m["labels"].get("component", "")): m
                   for m in doc["metrics"]}
        assert by_name[("nic_packets_sent", "nic[host1]")]["value"] == 42.0
        hist = by_name[("packet_latency_ns", "")]
        assert hist["count"] == 3 and hist["buckets"][-1]["le"] == "+Inf"
        assert doc["sample_interval_ns"] == 10.0
        series = {s["name"]: s for s in doc["series"]}
        assert series["nic_send_queue_depth"]["values"] == [3.0] * 4
        assert doc["profile"]["events_total"] == 5

    def test_extra_fields_merge(self):
        doc = to_json(extra={"workload": "fig8"})
        assert doc["workload"] == "fig8"


class TestCsv:
    def test_round_trip(self):
        reg = _populated_registry()
        sampler = _sampled(reg)
        text = series_to_csv(sampler.all_series())
        rows = parse_series_csv(text)
        depth = [(t, v) for t, name, comp, v in rows
                 if name == "nic_send_queue_depth"]
        assert depth == [(0.0, 3.0), (10.0, 3.0), (20.0, 3.0), (30.0, 3.0)]
        comps = {comp for _t, name, comp, _v in rows
                 if name == "nic_send_queue_depth"}
        assert comps == {"nic[host1]"}

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_series_csv("nope\n1,2,3,4")


class TestChromeCounters:
    def test_series_become_counter_events(self):
        reg = _populated_registry()
        sampler = _sampled(reg)
        events = to_counter_events(sampler.all_series())
        assert events and all(e["ph"] == "C" for e in events)
        depth = [e for e in events
                 if e["name"] == "nic_send_queue_depth nic[host1]"]
        assert [e["args"]["value"] for e in depth] == [3.0] * 4
        # Timestamps are in microseconds.
        assert depth[1]["ts"] == pytest.approx(0.01)

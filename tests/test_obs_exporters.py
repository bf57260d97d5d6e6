"""Round-trip tests for every telemetry exporter."""

from __future__ import annotations

import json

import pytest

from repro.obs.attach import Telemetry
from repro.obs.exporters import (
    parse_prometheus_text,
    sanitize_metric_name,
    to_counter_events,
    to_prometheus_text,
    write_telemetry,
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
    def test_document_round_trips_through_json(self, tmp_path):
        reg = _populated_registry()
        sampler = _sampled(reg)
        prof = Profiler()
        prof.events_by_component["send[a]"] = 5
        prof.events_total = 5
        write_telemetry(tmp_path / "build", Telemetry(
            registry=reg, sampler=sampler, profiler=prof))
        # No tracer: no span dump.
        assert {f.name for f in (tmp_path / "build").iterdir()} == {
            "metrics.prom", "telemetry.json", "trace.json"}
        doc = json.loads((tmp_path / "build" / "telemetry.json").read_text())
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

class TestChromeCounters:
    def test_series_become_counter_events(self):
        reg = _populated_registry()
        sampler = _sampled(reg)
        events = to_counter_events(sampler.all_series())
        assert events and all(e["ph"] == "C" for e in events)
        depth = [e for e in events
                 if e["name"] == "nic_send_queue_depth nic[host1]"]
        # Four samples of one value: one event, at the first sample.
        assert [(e["ts"], e["args"]["value"]) for e in depth] == [(0.0, 3.0)]

    def test_events_only_where_the_value_changes(self):
        sim = Simulator()
        reg = MetricsRegistry()
        level = reg.gauge("level", component="nic[a]")
        sampler = Sampler(sim, reg, interval_ns=10.0).start()
        sim.schedule(15.0, lambda: level.set(2.0))
        sim.schedule(35.0, lambda: level.set(0.0))
        sim.schedule(40.0, lambda: None)  # model work to t=40
        sim.run(until=40.0)
        assert sampler.get("level").values() == [0.0, 0.0, 2.0, 2.0, 0.0]
        events = to_counter_events(sampler.all_series())
        # Timestamps are in microseconds.
        assert [(e["ts"], e["args"]["value"]) for e in events] == [
            (0.0, 0.0), (pytest.approx(0.02), 2.0), (pytest.approx(0.04), 0.0)]

    def test_every_label_names_the_track(self):
        """Parallel cables share a component; their link label keeps
        their tracks apart."""
        sim = Simulator()
        reg = MetricsRegistry()
        for link in ("3:0", "4:0"):
            reg.gauge("fabric_channel_busy_ns", component="channel[1->2]",
                      labels={"link": link})
        reg.gauge("fabric_jain_fairness")
        sampler = Sampler(sim, reg, interval_ns=10.0).start()
        sim.run(until=0.0)
        assert sorted(e["name"] for e in to_counter_events(
            sampler.all_series())) == [
            "fabric_channel_busy_ns channel[1->2] link=3:0",
            "fabric_channel_busy_ns channel[1->2] link=4:0",
            "fabric_jain_fairness"]

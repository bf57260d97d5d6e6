"""Integration + acceptance tests for the unified telemetry subsystem.

Covers the ISSUE-1 acceptance criteria: the Fig. 8 workload's ITB
buffer-occupancy gauge is nonzero exactly while an in-transit packet
is buffered, the engine profiler's per-component counts sum to its
total, and ``repro obs`` produces Prometheus text, JSON, CSV, and a
chrome trace with counter tracks.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.paths import fig6_paths
from repro.obs.attach import instrument_network
from repro.obs.exporters import parse_prometheus_text, parse_series_csv
from repro.obs.run import export_all, run_obs
from tests.conftest import send_traced


def _instrumented_fig8_run(interval_ns: float = 100.0):
    """One traced packet over the Fig. 8 ITB path with full telemetry
    on; returns the network, its telemetry and the span tracer."""
    cfg = NetworkConfig(
        firmware="itb", routing="updown",
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    net = build_network("fig6", config=cfg)
    telemetry = instrument_network(
        net, sample_interval_ns=interval_ns, profile=True)
    paths = fig6_paths(net.topo, net.roles)
    _tp, tracer = send_traced(net, net.roles["host1"], net.roles["host2"],
                              size=256, route=paths.itb5)
    telemetry.stop()
    return net, telemetry, tracer


class TestWiring:
    def test_nic_stats_published_through_registry(self, fig6_routes):
        net, telemetry, _tracer = _instrumented_fig8_run()
        reg = telemetry.registry
        for host, nic in net.nics.items():
            comp = f"nic[{nic.name}]"
            assert reg.get("nic_packets_sent", component=comp).value == \
                nic.stats.packets_sent
            assert reg.get("nic_packets_forwarded", component=comp).value == \
                nic.stats.packets_forwarded
        itb = f"nic[{net.topo.node_name(net.roles['itb'])}]"
        assert reg.get("nic_packets_forwarded", component=itb).value == 1

    def test_fabric_usage_published_through_registry(self):
        net, telemetry, _tracer = _instrumented_fig8_run()
        reg = telemetry.registry
        usage = telemetry.usage
        assert usage is not None
        total_packets = sum(
            reg.get("fabric_channel_packets_total",
                    component=f"channel[{c.from_node}->{c.to_node}]",
                    labels={"link": f"{c.key[0]}:{c.key[1]}"}).value
            for c in usage.channels.values()
        )
        assert total_packets == sum(c.packets for c in usage.channels.values())
        assert total_packets >= 1  # the ITB path crosses the fabric
        assert 0.0 < reg.get("fabric_jain_fairness").value <= 1.0

    def test_firmware_emits_counted(self):
        net, telemetry, tracer = _instrumented_fig8_run()
        reg = telemetry.registry
        name = net.topo.node_name(net.roles["itb"])
        early = reg.get("nic_mcp_events_total", component=f"nic[{name}]",
                        labels={"kind": "early_recv"})
        # Every early-recv of an in-transit packet opens its buffer span.
        assert early.value == len(
            [s for s in tracer.spans
             if s.name == "itb_buffer" and s.component == f"mcp[{name}]"])
        assert early.value >= 1


class TestFig8OccupancyAcceptance:
    def test_itb_occupancy_nonzero_exactly_while_buffered(self):
        net, telemetry, tracer = _instrumented_fig8_run(interval_ns=100.0)
        name = net.topo.node_name(net.roles["itb"])
        series = telemetry.sampler.get(
            "nic_recv_buffer_occupancy_bytes", component=f"nic[{name}]")
        (buffered,) = [s for s in tracer.spans if s.name == "itb_buffer"]
        assert buffered.component == f"mcp[{name}]"
        t_claim, t_free = buffered.start, buffered.end
        assert t_free > t_claim
        nonzero = [p for p in series.points if p.value > 0]
        assert nonzero, "expected samples while the ITB packet was buffered"
        # Nonzero exactly while buffered: every nonzero sample falls
        # inside [claim, release], every sample outside is zero.
        for p in nonzero:
            assert t_claim <= p.t_ns <= t_free
        for p in series.points:
            if p.t_ns < t_claim or p.t_ns > t_free:
                assert p.value == 0.0

    def test_occupancy_matches_wire_size(self):
        net, telemetry, _tracer = _instrumented_fig8_run(interval_ns=50.0)
        itb = f"nic[{net.topo.node_name(net.roles['itb'])}]"
        series = telemetry.sampler.get(
            "nic_recv_buffer_occupancy_bytes", component=itb)
        peak = max(series.values())
        # One buffered packet: payload + headers, well under 2 packets.
        assert 256 <= peak < 2 * 256 + 64


class TestProfilerAcceptance:
    def test_component_counts_sum_to_engine_total(self):
        _net, telemetry, _tracer = _instrumented_fig8_run()
        prof = telemetry.profiler
        assert prof.events_total > 0
        assert sum(prof.events_by_component.values()) == prof.events_total
        # The MCP state machines show up by name.
        kinds = prof.by_kind()
        assert "sdma" in kinds and "send" in kinds


class TestRunObs:
    @pytest.fixture(scope="class")
    def obs_result(self):
        return run_obs(topology="fig6", load=0.02, duration_ns=30_000.0,
                       interval_ns=500.0)

    def test_traffic_flows_and_latency_summarized(self, obs_result):
        assert obs_result.traffic.offered_packets > 0
        assert obs_result.latency.n == len(obs_result.traffic.latencies_ns)

    def test_latency_histogram_populated(self, obs_result):
        hist = obs_result.registry.get("packet_latency_ns")
        assert hist.count == obs_result.latency.n

    def test_export_all_round_trips(self, obs_result, tmp_path):
        paths = export_all(obs_result, tmp_path)
        assert set(paths) == {"prometheus", "json", "csv", "chrome_trace"}

        parsed = parse_prometheus_text(paths["prometheus"].read_text())
        sent = sum(v for (name, _labels), v in parsed.items()
                   if name == "nic_packets_sent")
        assert sent == obs_result.net.total_stats()["packets_sent"]

        doc = json.loads(paths["json"].read_text())
        assert doc["format"] == "repro-telemetry/1"
        assert doc["series"] and doc["profile"]["events_total"] > 0

        rows = parse_series_csv(paths["csv"].read_text())
        assert rows and all(isinstance(r[3], float) for r in rows)

        trace = json.loads(paths["chrome_trace"].read_text())
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert phases == {"C"}  # packet rows come from spans only

    def test_traced_export_adds_span_rows(self, tmp_path):
        result = run_obs(topology="fig6", load=0.02, duration_ns=30_000.0,
                         interval_ns=500.0, profile=False, trace_every=1)
        paths = export_all(result, tmp_path)
        assert set(paths) == {"prometheus", "json", "csv", "chrome_trace",
                              "spans"}
        trace = json.loads(paths["chrome_trace"].read_text())
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"C", "b", "e"} <= phases

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            run_obs(topology="hypercube")


class TestCliObs:
    def test_obs_subcommand_smoke(self, tmp_path, capsys):
        rc = main(["obs", "--topology", "fig6", "--duration", "30",
                   "--interval", "500", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro obs" in out
        assert "engine profile" in out
        assert "wrote prometheus" in out
        assert (tmp_path / "metrics.prom").exists()
        assert (tmp_path / "trace.json").exists()

    def test_obs_random_topology_smoke(self, capsys):
        rc = main(["obs", "--topology", "random", "--switches", "4",
                   "--hosts-per-switch", "1", "--duration", "20"])
        assert rc == 0
        assert "telemetry" in capsys.readouterr().out

"""Integration + acceptance tests for the unified telemetry subsystem.

Covers the Fig. 8 workload's ITB buffer-occupancy gauge (nonzero
exactly while an in-transit packet is buffered), the engine profiler's
per-component counts summing to its total, and observing a registered
experiment: ``repro run <exp> --metrics-out DIR [--trace-every N]``
writes Prometheus text, JSON and a chrome trace with one counter track
per sampled series (plus the span dump and span rows when traced) for
every build, changes no result, refuses a directory that already holds
files, and ``repro trace`` inspects the span dump.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.exp import ExperimentSpec, Runner, get_experiment
from repro.exp.experiments import QUICK_SIZES
from repro.harness.paths import fig6_paths
from repro.obs.attach import instrument_network
from repro.obs.exporters import parse_prometheus_text, track_name
from repro.obs.tracing import (configure, configured_sample_every, disable,
                               load_dump)
from tests.conftest import send_traced

#: fig8 on the quick ladder at two iterations: 4 points x (UD, UD-ITB).
FIG8_SMALL = ExperimentSpec(experiment="fig8", sizes=QUICK_SIZES,
                            iterations=2)
#: One fault-campaign point with loss, corruption and the fault schedule.
FAULT_SMALL = get_experiment("fault-campaign").default_spec().replace(
    params={"loss": [0.2], "corrupt": [0.1], "schedules": ["campaign"],
            "messages": 8})
#: vc-study at one rate over a short window: the updown and itb arms
#: on one lane, the vc and itb+vc arms on several.
VC_SMALL = get_experiment("vc-study").default_spec().replace(
    rates=(0.04,), duration_ns=20_000.0, warmup_ns=5_000.0)
#: The files of every observed build.
FILES = {"metrics.prom", "telemetry.json", "trace.json"}


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


def _observe(spec: ExperimentSpec, out: Path, trace_every: int = 0,
             jobs: int = 1):
    """Run ``spec`` observed into ``out`` (and span-traced every
    ``trace_every``); returns the report and :func:`_builds` of ``out``."""
    if trace_every:
        configure(trace_every)
    try:
        report = Runner().run(spec, jobs=jobs, metrics_out=str(out))
    finally:
        disable()
    return report, _builds(out)


def _builds(out: Path) -> dict[str, dict[str, str]]:
    """``{build directory: {file name: text}}`` of one observed run."""
    return {build.name: {f.name: f.read_text() for f in build.iterdir()}
            for build in sorted(out.iterdir())}


def _dir_names(n_points: int, n_builds: int) -> list[str]:
    return [f"p{point:03d}-b{build}" for point in range(n_points)
            for build in range(n_builds)]


def _phases(files: dict) -> set:
    return {e["ph"] for e in json.loads(files["trace.json"])["traceEvents"]}


def _metric(files: dict, name: str) -> dict:
    """``{labels: value}`` of one metric in a build's metrics.prom."""
    return {labels: value for (metric, labels), value
            in parse_prometheus_text(files["metrics.prom"]).items()
            if metric == name}


@pytest.fixture(scope="module")
def observed_fig8(tmp_path_factory):
    return _observe(FIG8_SMALL, tmp_path_factory.mktemp("fig8"))


@pytest.fixture(scope="module")
def traced_fig8(tmp_path_factory):
    return _observe(FIG8_SMALL, tmp_path_factory.mktemp("fig8-traced"),
                    trace_every=1)


class TestObservedExperiment:
    def test_every_build_has_its_files(self, observed_fig8):
        report, builds = observed_fig8
        assert report.spec.observe
        assert list(builds) == _dir_names(4, 2)
        for files in builds.values():
            assert set(files) == FILES and all(files.values())
            doc = json.loads(files["telemetry.json"])
            assert doc["format"] == "repro-telemetry/1"
            assert doc["series"] and doc["profile"]["events_total"] > 0
            assert doc["sample_interval_ns"] == 1000.0
            assert sum(_metric(files, "nic_packets_sent").values()) > 0
            assert _phases(files) == {"C"}  # packet rows come from spans

    def test_itb_forwards_only_in_ud_itb_builds(self, observed_fig8):
        _report, builds = observed_fig8
        itb = (("component", "nic[itb]"),)
        for point in range(4):
            ud, ud_itb = (builds[f"p{point:03d}-b{b}"] for b in (0, 1))
            assert _metric(ud, "nic_packets_forwarded")[itb] == 0
            assert _metric(ud_itb, "nic_packets_forwarded")[itb] > 0

    def test_traced_builds_add_spans(self, traced_fig8):
        report, builds = traced_fig8
        for files in builds.values():
            assert set(files) == FILES | {"spans.json"}
            assert {"C", "b", "e"} <= _phases(files)
            assert load_dump(files["spans.json"])
            assert _metric(files, "latency_breakdown_ns_count")
        # The spans file is the build's canonical span dump.
        assert [f["spans.json"] for f in builds.values()] == \
            report.span_dumps

    def test_jobs4_texts_match_serial(self, traced_fig8, tmp_path):
        def texts(builds):
            # telemetry.json's profile holds wall times.
            return {build: {name: text for name, text in files.items()
                            if name != "telemetry.json"}
                    for build, files in builds.items()}

        _report, parallel = _observe(FIG8_SMALL, tmp_path, trace_every=1,
                                     jobs=4)
        assert texts(parallel) == texts(traced_fig8[1])

    @pytest.mark.parametrize("spec,trace_every", [
        pytest.param(FIG8_SMALL, 0, id="fig8"),
        pytest.param(FIG8_SMALL, 1, id="fig8-traced"),
        pytest.param(FAULT_SMALL, 0, id="fault-campaign"),
        pytest.param(FAULT_SMALL, 1, id="fault-campaign-traced"),
    ])
    def test_observing_changes_no_result(self, spec, trace_every, tmp_path):
        """Observing, and span-tracing every message, change nothing
        in the saved document but the spec's ``observe`` field."""
        plain_path = tmp_path / "plain.json"
        observed_path = tmp_path / "observed.json"
        Runner().run(spec, save=str(plain_path))
        if trace_every:
            configure(trace_every)
        try:
            report = Runner().run(spec, save=str(observed_path),
                                  metrics_out=str(tmp_path / "obs"))
        finally:
            disable()
        assert bool(report.span_dumps) == bool(trace_every)
        plain = json.loads(plain_path.read_text())
        observed = json.loads(observed_path.read_text())
        name = spec.experiment
        assert observed["specs"][name].pop("observe") is True
        assert plain["specs"][name].pop("observe") is False
        assert observed == plain

    def test_adaptive_point_keeps_the_nic_event_sink(self, tmp_path):
        """The harness's congestion view reuses the build's registry,
        so firmware events still reach the exported metrics."""
        spec = get_experiment("adaptive-itb").default_spec()
        spec = spec.replace(duration_ns=20_000.0, warmup_ns=5_000.0,
                            params={**spec.params, "switch_list": (8,),
                                    "policies": ("least-loaded",),
                                    "matrices": ("hotspot",)})
        _report, builds = _observe(spec, tmp_path)
        (files,) = builds.values()
        assert sum(_metric(files, "nic_mcp_events_total").values()) > 0
        assert sum(_metric(files, "itb_reselect_runs").values()) > 0


def _tracks(files: dict) -> dict[str, list[dict]]:
    """A build's counter events by track name, in file order."""
    tracks: dict[str, list[dict]] = {}
    for event in json.loads(files["trace.json"])["traceEvents"]:
        if event["ph"] == "C":
            tracks.setdefault(event["name"], []).append(event)
    return tracks


def _step_values(events: list[dict], times_ns: list[float]) -> list[float]:
    """A counter track read at each sample time, as Perfetto draws it:
    the value of the track's last event at or before that time."""
    values, i = [], -1
    for t in times_ns:
        while i + 1 < len(events) and events[i + 1]["ts"] <= t / 1000.0:
            i += 1
        assert i >= 0, f"sample at {t} ns precedes the track's first event"
        values.append(events[i]["args"]["value"])
    return values


@pytest.fixture(scope="module")
def observed_vc(tmp_path_factory):
    return _observe(VC_SMALL, tmp_path_factory.mktemp("vc"))


class TestCounterTracks:
    """trace.json holds one counter track per sampled series, and each
    track is that series' step function."""

    def test_vc_spec_observes_multi_lane_builds(self, observed_vc):
        _report, builds = observed_vc
        lanes = [{s["labels"]["lane"] for s in json.loads(
                     files["telemetry.json"])["series"]
                  if s["name"] == "fabric_lane_occupancy"}
                 for files in builds.values()]
        assert len(lanes) == 4  # updown, itb, vc, itb+vc at one rate
        assert sum(1 for lane_set in lanes if len(lane_set) > 1) >= 1

    @pytest.mark.parametrize("run", ["observed_fig8", "observed_vc"])
    def test_no_two_series_share_a_track(self, run, request):
        _report, builds = request.getfixturevalue(run)
        for build, files in builds.items():
            series = json.loads(files["telemetry.json"])["series"]
            names = [track_name(s["name"], s["labels"]) for s in series]
            assert len(set(names)) == len(names), build
            assert set(_tracks(files)) == set(names), build

    @pytest.mark.parametrize("run", ["observed_fig8", "observed_vc"])
    def test_tracks_expand_to_the_sampled_values(self, run, request):
        _report, builds = request.getfixturevalue(run)
        for build, files in builds.items():
            tracks = _tracks(files)
            for s in json.loads(files["telemetry.json"])["series"]:
                events = tracks[track_name(s["name"], s["labels"])]
                assert _step_values(events, s["times_ns"]) == s["values"], (
                    build, s["name"], s["labels"])
                # An event only where the value changes.
                values = [e["args"]["value"] for e in events]
                assert all(a != b for a, b in zip(values, values[1:]))


class TestCliObserve:
    def test_metrics_out_writes_a_directory_per_build(self, tmp_path,
                                                      capsys):
        out = tmp_path / "obs"
        rc = main(["run", "fig8", "--iterations", "2", "--trace-every", "1",
                   "--metrics-out", str(out)])
        assert rc == 0
        assert "telemetry of 8 builds" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == _dir_names(4, 2)
        for build_dir in out.iterdir():
            assert {f.name for f in build_dir.iterdir()} == (
                FILES | {"spans.json"})
        assert configured_sample_every() is None  # tracing is off again

    def test_non_empty_metrics_out_exits_2_before_running(self, tmp_path,
                                                          capsys):
        """A reused directory would mix an earlier run's builds with
        this run's: the CLI refuses it and writes nothing."""
        out = tmp_path / "obs"
        (out / "p004-b0").mkdir(parents=True)
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "fig8", "--iterations", "2", "--metrics-out",
                  str(out)])
        assert exc_info.value.code == 2
        assert "not an empty directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["p004-b0"]

    def test_trace_every_requires_metrics_out(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "fig8", "--iterations", "2", "--trace-every", "1"])
        assert exc_info.value.code == 2
        assert "--metrics-out" in capsys.readouterr().err


class TestTraceInspector:
    @pytest.fixture
    def spans_file(self, traced_fig8, tmp_path):
        """The span dump of the UD-ITB build at the largest size."""
        path = tmp_path / "spans.json"
        path.write_text(traced_fig8[1]["p003-b1"]["spans.json"])
        return path

    def test_summarize_prints_top_waterfalls(self, spans_file, capsys):
        assert main(["trace", "summarize", str(spans_file),
                     "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("traced ")
        assert out.count("\ntrace ") == 2
        assert "itb_buffer" in out

    def test_critical_path_total_is_the_sum_of_rows(self, spans_file,
                                                     capsys):
        assert main(["trace", "critical-path", str(spans_file)]) == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            cells = [c.strip() for c in line.split("|")]
            if len(cells) == 4 and cells[0] != "category":
                rows[cells[0]] = float(cells[1])
        total = rows.pop("TOTAL")
        assert len(rows) == 8 and total > 0
        # Each row is rounded to 0.01 us.
        assert total == pytest.approx(sum(rows.values()), abs=0.05)

    @pytest.mark.parametrize("content", [
        None, "not json", "[1, 2]", '{"format": "repro-telemetry/1"}'],
        ids=["missing", "not-json", "not-a-dict", "other-format"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys,
                                             content):
        path = tmp_path / "spans.json"
        if content is not None:
            path.write_text(content)
        assert main(["trace", "summarize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro trace: {path}: ")

"""The ``repro obs`` workload runner: drive traffic, collect everything.

One call builds a network (the paper's fig6 testbed or a random
irregular COW), attaches the full telemetry stack
(:func:`~repro.obs.attach.instrument_network`), drives open-loop
uniform traffic at a configured load, and returns the registry,
sampled time series, engine profile, span tracer (when tracing is on)
and latency summary in one :class:`ObsResult` — which
:func:`export_all` dumps as Prometheus text, JSON, CSV, and a chrome
trace with counter tracks and the spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.core.builder import BuiltNetwork, build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.chrome_trace import write_chrome_trace
from repro.harness.metrics import LatencySummary, summarize_latencies
from repro.harness.workloads import TrafficStats, drive_traffic
from repro.obs.attach import Telemetry, instrument_network
from repro.obs.critical_path import breakdown_dump, observe_breakdowns
from repro.obs.exporters import to_prometheus_text, write_json
from repro.obs.tracing import SpanTracer
from repro.topology.generators import random_irregular

__all__ = ["ObsResult", "export_all", "run_obs"]


@dataclass
class ObsResult:
    """Everything one instrumented workload run produced."""

    net: BuiltNetwork
    telemetry: Telemetry
    traffic: TrafficStats
    latency: LatencySummary

    @property
    def registry(self):
        """Shortcut to the telemetry registry."""
        return self.telemetry.registry

    @property
    def tracer(self):
        """The run's span tracer (``None`` when tracing was off)."""
        return self.net.fabric.tracer


def run_obs(
    topology: str = "fig6",
    switches: int = 8,
    hosts_per_switch: int = 2,
    topo_seed: int = 5,
    routing: str = "updown",
    load: float = 0.02,
    packet_size: int = 512,
    duration_ns: float = 50_000.0,
    warmup_ns: float = 0.0,
    interval_ns: float = 1_000.0,
    traffic_seed: int = 7,
    profile: bool = True,
    trace_every: int = 0,
) -> ObsResult:
    """Run one fully instrumented open-loop traffic workload.

    Parameters mirror the EXP-M1 harness: ``load`` is offered bytes/ns
    per host (link capacity 0.16), ``interval_ns`` is the gauge
    sampling cadence.  ``topology`` is ``"fig6"`` (the paper testbed)
    or ``"random"`` (an irregular COW of ``switches`` switches).
    The ITB firmware with the proposed buffer pool runs everywhere so
    in-transit forwarding is observable; host noise is disabled for
    reproducible series.

    ``trace_every`` > 0 attaches a causal span tracer sampling every
    Nth message (1 = all); per-trace critical-path breakdowns land in
    the ``latency_breakdown_ns`` histograms.
    """
    config = NetworkConfig(
        firmware="itb",
        routing=routing,
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
        reliable=False,
        recv_buffer_kind="pool",
        pool_bytes=1024 * 1024,
        seed=topo_seed,
    )
    if topology == "fig6":
        net = build_network("fig6", config=config)
    elif topology == "random":
        topo = random_irregular(switches, seed=topo_seed,
                                hosts_per_switch=hosts_per_switch)
        net = build_network(topo, config=config)
    else:
        raise ValueError(f"unknown topology {topology!r}"
                         " (expected 'fig6' or 'random')")

    if trace_every > 0:
        net.fabric.tracer = SpanTracer(sample_every=trace_every)

    telemetry = instrument_network(
        net, sample_interval_ns=interval_ns, profile=profile)
    traffic = drive_traffic(
        net,
        rate_bytes_per_ns_per_host=load,
        packet_size=packet_size,
        duration_ns=duration_ns,
        warmup_ns=warmup_ns,
        seed=traffic_seed,
    )
    telemetry.stop()

    hist = telemetry.registry.histogram(
        "packet_latency_ns",
        help="end-to-end packet latency (host_send to last byte), ns")
    for sample in traffic.latencies_ns:
        hist.observe(sample)

    tracer = net.fabric.tracer
    if tracer is not None:
        observe_breakdowns(breakdown_dump(tracer.spans), telemetry.registry)

    return ObsResult(
        net=net,
        telemetry=telemetry,
        traffic=traffic,
        latency=summarize_latencies(traffic.latencies_ns),
    )


def export_all(result: ObsResult, out_dir: Union[str, Path]) -> dict[str, Path]:
    """Dump every exporter's view of a run into ``out_dir``.

    Writes ``metrics.prom`` (Prometheus text), ``telemetry.json``
    (metrics + series + profile), ``series.csv`` (long-format sampled
    series), and ``trace.json`` (chrome trace with counter tracks and,
    when spans were collected, async span tracks + flow arrows).  A
    traced run additionally writes ``spans.json`` (the canonical span
    dump).  Returns ``{kind: path}``.
    """
    from repro.obs.exporters import series_to_csv

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    telemetry = result.telemetry
    paths: dict[str, Path] = {}

    prom = out_dir / "metrics.prom"
    prom.write_text(to_prometheus_text(telemetry.registry))
    paths["prometheus"] = prom

    paths["json"] = write_json(
        out_dir / "telemetry.json",
        registry=telemetry.registry,
        sampler=telemetry.sampler,
        profiler=telemetry.profiler,
    )

    series = telemetry.sampler.all_series() if telemetry.sampler else []
    csv_path = out_dir / "series.csv"
    csv_path.write_text(series_to_csv(series))
    paths["csv"] = csv_path

    tracer = result.tracer
    spans = tracer.spans if tracer is not None else ()
    paths["chrome_trace"] = write_chrome_trace(
        out_dir / "trace.json", series=series, spans=spans)
    if tracer is not None:
        span_path = out_dir / "spans.json"
        span_path.write_text(tracer.dump_json())
        paths["spans"] = span_path
    return paths

"""Tests for the channel-usage view, the busy-time counters each
channel lane keeps, and the measured-balance experiment they enable."""

from __future__ import annotations

import pytest

from repro.core.timings import Timings
from repro.harness.throughput import build_load_network
from repro.harness.workloads import drive_traffic
from repro.mcp.packet_format import encode_packet
from repro.network.fabric import Fabric
from repro.network.instrumentation import FabricUsage
from repro.network.worm import Worm
from repro.routing.routes import SourceRoute
from repro.sim.engine import Simulator
from repro.topology.generators import random_irregular
from repro.topology.graph import Topology


def run_with_meter(routing: str, rate=0.04, n_switches=8, seed=5):
    topo = random_irregular(n_switches, seed=seed, hosts_per_switch=2)
    net = build_load_network(topo, routing)
    usage = FabricUsage(net)
    drive_traffic(net, rate_bytes_per_ns_per_host=rate, packet_size=512,
                  duration_ns=120_000, warmup_ns=20_000)
    return net, usage


class TestMeterMechanics:
    def test_only_fabric_channels_metered(self):
        net, usage = run_with_meter("updown", rate=0.01)
        topo = net.topo
        for cu in usage.channels.values():
            assert topo.is_switch(cu.from_node)
            assert topo.is_switch(cu.to_node)

    def test_busy_time_accumulates(self):
        _net, usage = run_with_meter("updown")
        assert usage.loads().sum() > 0
        assert usage.packet_counts().sum() > 0

    def test_busy_time_bounded_by_observation(self):
        _net, usage = run_with_meter("updown")
        # A channel cannot be busy longer than the observed window
        # (plus in-flight packets at the cut; allow slack for those).
        assert usage.max_utilization() < 1.2

    def test_fairness_index_in_range(self):
        _net, usage = run_with_meter("updown")
        assert 0.0 < usage.jain_fairness() <= 1.0

    def test_empty_meter_degenerate_values(self):
        topo = random_irregular(4, seed=1)
        net = build_load_network(topo, "updown")
        usage = FabricUsage(net)
        assert usage.jain_fairness() == 1.0
        assert usage.max_utilization() == 0.0
        assert usage.root_concentration() == 0.0

    def test_view_created_mid_run_counts_from_creation(self):
        topo = random_irregular(8, seed=5, hosts_per_switch=2)
        net = build_load_network(topo, "updown")
        whole = FabricUsage(net)
        drive_traffic(net, rate_bytes_per_ns_per_host=0.04,
                      packet_size=512, duration_ns=40_000, warmup_ns=0.0)
        before = {k: (c.packets, c.busy_ns)
                  for k, c in whole.channels.items()}
        late = FabricUsage(net)
        assert late.t_start == net.sim.now > 0.0
        assert set(late.channels) == set(whole.channels)
        assert late.packet_counts().sum() == 0
        assert late.loads().sum() == 0.0
        drive_traffic(net, rate_bytes_per_ns_per_host=0.04,
                      packet_size=512, duration_ns=40_000, warmup_ns=0.0,
                      seed=11)
        net.sim.run()
        assert 0 < late.packet_counts().sum() < whole.packet_counts().sum()
        for key, cu in late.channels.items():
            packets0, busy0 = before[key]
            assert cu.packets == whole.channels[key].packets - packets0
            assert cu.busy_ns == pytest.approx(
                whole.channels[key].busy_ns - busy0)


def _drained_uniform(rate, lanes, lane_policy, express):
    """Uniform ITB traffic on 16 switches, run until the fabric drains."""
    net = build_load_network(random_irregular(16, seed=5), "itb",
                             lanes=lanes, lane_policy=lane_policy)
    net.fabric.express_enabled = express
    usage = FabricUsage(net)
    stats = drive_traffic(net, rate_bytes_per_ns_per_host=rate,
                          packet_size=512, duration_ns=300_000.0,
                          warmup_ns=0.0, seed=7)
    net.sim.run()
    lanes_seen = {key: (cu.packets, cu.busy_ns)
                  for key, cu in usage.channels.items()}
    return stats, lanes_seen, net.fabric.express_stats


class _Quiet:
    """Worm observer that never gates and ignores completions."""

    def on_header(self, worm, t):
        return None

    def on_complete(self, worm, t):
        pass


class TestBusyTimeCounters:
    """Every lane counts its own grants and busy time; the express
    lane's virtual and backdated holds must add exactly what the
    stepped lane's requests and releases add."""

    @pytest.mark.parametrize("rate", [0.01, 0.03])
    @pytest.mark.parametrize("lanes,lane_policy", [
        (1, "fixed"), (2, "roundrobin"), (2, "escape")])
    def test_express_and_stepped_count_identically(self, rate, lanes,
                                                   lane_policy):
        ex_stats, ex_lanes, express = _drained_uniform(
            rate, lanes, lane_policy, True)
        st_stats, st_lanes, _ = _drained_uniform(
            rate, lanes, lane_policy, False)
        assert sorted(ex_stats.latencies_ns) == sorted(st_stats.latencies_ns)
        assert ex_stats.delivered_packets == st_stats.delivered_packets
        assert express.hits > 0
        assert ex_lanes == st_lanes
        assert sum(p for p, _busy in ex_lanes.values()) > 0

    def test_settled_virtual_hold(self):
        """A fully virtual express flight never touches its lanes; on
        completion it adds one grant and its closed-form hold to each."""
        topo = Topology()
        switches = [topo.add_switch(n_ports=4) for _ in range(3)]
        for a, b in zip(switches, switches[1:]):
            topo.connect(a, 2, b, 3)
        src = topo.attach_host(switches[0], 0, name="src")
        dst = topo.attach_host(switches[-1], 1, name="dst")
        seg = SourceRoute(src=src, dst=dst, ports=(2, 2, 1),
                          switch_path=tuple(switches))

        def fly(express):
            sim = Simulator()
            fabric = Fabric(sim, topo, Timings())
            fabric.express_enabled = express
            worm = Worm(sim, fabric, seg, encode_packet(seg, b"x" * 300),
                        observer=_Quiet(), meta={})
            worm.launch()
            sim.run()
            plan = fabric.flight_plan(seg)
            counts = [(ch.resource.grants, ch.resource.busy_ns)
                      for ch in plan.channels]
            return worm, fabric, counts

        worm, fabric, counts = fly(True)
        assert fabric.express_stats.hits == 1
        assert not fabric.express_stats.stepped_hops
        assert counts == [(1, worm.complete_time - t) for t in worm._acq]
        _stepped, _fabric, stepped_counts = fly(False)
        assert counts == stepped_counts


class TestMeasuredBalance:
    """The paper's traffic-balance argument, observed dynamically."""

    @pytest.fixture(scope="class")
    def measured(self):
        out = {}
        for routing in ("updown", "itb"):
            _net, usage = run_with_meter(routing, rate=0.05,
                                         n_switches=12, seed=7)
            out[routing] = usage
        return out

    def test_itb_spreads_load(self, measured):
        """ITB routing's busy-time distribution is at least as even as
        up*/down*'s (higher Jain index)."""
        assert measured["itb"].jain_fairness() >= \
            measured["updown"].jain_fairness() * 0.98

    def test_itb_relieves_root_channels(self, measured):
        """The share of fabric busy-time carried next to the root
        shrinks under ITB routing."""
        assert measured["itb"].root_concentration() <= \
            measured["updown"].root_concentration() + 0.02

    def test_hottest_channel_cooler_under_itb(self, measured):
        assert measured["itb"].max_utilization() <= \
            measured["updown"].max_utilization() * 1.05

"""Express-vs-stepped worm flight equivalence suite.

The express lane (``docs/ENGINE_FASTPATH.md``, "Express worm flight")
must be *observationally identical* to the stepped generator: every
scenario here runs twice — ``fabric.express_enabled`` on and off — and
asserts identical per-worm timing tuples
(``inject_time``/``header_time``/``complete_time``/``blocked_ns``)
and identical observer logs.  The deterministic scenarios are built
tie-free (no two observable events share a timestamp), so their logs
compare as ordered sequences; the hypothesis property test drives
random contended traffic and compares per-worm tuples exactly plus
the event log as a multiset (same-timestamp dispatch order is the one
legitimate freedom the engine keeps).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.paths import fig6_paths
from repro.harness.throughput import build_load_network
from repro.harness.workloads import drive_traffic
from repro.mcp.packet_format import encode_packet
from repro.network.fabric import Fabric
from repro.network.worm import Worm
from repro.obs.tracing import SpanTracer, tree_signature
from repro.routing.routes import SourceRoute
from repro.sim.engine import SimulationError, Simulator
from repro.topology.generators import random_irregular
from repro.topology.graph import Topology


class LogObserver:
    """Records header/complete notifications into a shared log."""

    def __init__(self, log: list, gate=None):
        self.log = log
        self.gate = gate

    def on_header(self, worm, t):
        self.log.append(("header", worm.meta["tag"], t))
        return self.gate

    def on_complete(self, worm, t):
        self.log.append(("complete", worm.meta["tag"], t))


def _single_switch():
    """host a -- switch -- hosts b, c (SAN, 3 m cables)."""
    topo = Topology()
    sw = topo.add_switch(n_ports=6)
    a = topo.attach_host(sw, 0, name="a")
    b = topo.attach_host(sw, 1, name="b")
    c = topo.attach_host(sw, 2, name="c")
    sim = Simulator()
    fabric = Fabric(sim, topo, Timings())
    return sim, fabric, sw, a, b, c


def _line(n_switches: int):
    """A line of switches with one host at each end."""
    topo = Topology()
    switches = [topo.add_switch(n_ports=4) for _ in range(n_switches)]
    for i in range(n_switches - 1):
        topo.connect(switches[i], 2, switches[i + 1], 3)
    src = topo.attach_host(switches[0], 0, name="src")
    dst = topo.attach_host(switches[-1], 1, name="dst")
    seg = SourceRoute(
        src=src, dst=dst,
        ports=(2,) * (n_switches - 1) + (1,),
        switch_path=tuple(switches),
    )
    sim = Simulator()
    fabric = Fabric(sim, topo, Timings())
    return sim, fabric, seg


def _launch_at(sim, fabric, seg, payload, obs, tag, at=0.0):
    image = encode_packet(seg, payload)
    worm = Worm(sim, fabric, seg, image, observer=obs, meta={"tag": tag})
    if at == 0.0:
        worm.launch()
    else:
        sim.schedule(at, worm.launch)
    return worm


def _records(worms: dict) -> dict:
    return {
        tag: (w.inject_time, w.header_time, w.complete_time, w.blocked_ns)
        for tag, w in worms.items()
    }


def _run_both(scenario):
    """Run a scenario with the express lane on and off; return both."""
    express = scenario(True)
    stepped = scenario(False)
    return express, stepped


def _assert_equivalent(express, stepped):
    ex_records, ex_log, _ = express
    st_records, st_log, _ = stepped
    assert ex_records == st_records
    assert ex_log == st_log


# ---------------------------------------------------------------------------
# deterministic scenarios
# ---------------------------------------------------------------------------


class TestUncontended:
    def _sequential(self, express: bool):
        sim, fabric, sw, a, b, c = _single_switch()
        fabric.express_enabled = express
        log: list = []
        obs = LogObserver(log)
        seg = SourceRoute(src=a, dst=c, ports=(2,), switch_path=(sw,))
        worms = {
            i: _launch_at(sim, fabric, seg, b"x" * 64, obs, i,
                          at=i * 10_000.0)
            for i in range(3)
        }
        sim.run()
        return _records(worms), log, fabric

    def test_sequential_single_switch(self):
        express, stepped = _run_both(self._sequential)
        _assert_equivalent(express, stepped)
        assert express[2].express_stats.hits == 3
        assert express[2].express_stats.stepped_hops == 0
        assert stepped[2].express_stats.hits == 0
        assert stepped[2].express_stats.fallbacks == 3

    def _long_line(self, express: bool):
        sim, fabric, seg = _line(5)
        fabric.express_enabled = express
        log: list = []
        obs = LogObserver(log)
        worms = {0: _launch_at(sim, fabric, seg, b"y" * 200, obs, 0)}
        sim.run()
        return _records(worms), log, fabric

    def test_five_switch_line(self):
        express, stepped = _run_both(self._long_line)
        _assert_equivalent(express, stepped)
        assert express[2].express_stats.hits == 1

    def _tiny(self, express: bool):
        sim, fabric, sw, a, b, c = _single_switch()
        fabric.express_enabled = express
        log: list = []
        obs = LogObserver(log)
        seg = SourceRoute(src=a, dst=b, ports=(1,), switch_path=(sw,))
        worms = {0: _launch_at(sim, fabric, seg, b"", obs, 0)}
        sim.run()
        return _records(worms), log, fabric

    def test_tiny_payload_remaining_zero(self):
        """A packet shorter than early_recv_bytes (remaining == 0)."""
        _assert_equivalent(*_run_both(self._tiny))

    def _disjoint(self, express: bool):
        sim, fabric, sw, a, b, c = _single_switch()
        fabric.express_enabled = express
        log: list = []
        obs = LogObserver(log)
        seg_ac = SourceRoute(src=a, dst=c, ports=(2,), switch_path=(sw,))
        seg_bc = SourceRoute(src=b, dst=c, ports=(2,), switch_path=(sw,))
        seg_ab = SourceRoute(src=a, dst=b, ports=(1,), switch_path=(sw,))
        seg_ba = SourceRoute(src=b, dst=a, ports=(0,), switch_path=(sw,))
        worms = {
            "ab": _launch_at(sim, fabric, seg_ab, b"q" * 100, obs, "ab"),
            "ba": _launch_at(sim, fabric, seg_ba, b"r" * 300, obs, "ba",
                             at=1.0),
        }
        sim.run()
        return _records(worms), log, fabric

    def test_disjoint_routes_both_express(self):
        express, stepped = _run_both(self._disjoint)
        _assert_equivalent(express, stepped)
        assert express[2].express_stats.hits == 2
        assert express[2].express_stats.fallbacks == 0


class TestContention:
    def _staggered(self, express: bool, stagger_ns: float):
        """B launches while A's express head is still mid-line."""
        sim, fabric, sw, a, b, c = _single_switch()
        fabric.express_enabled = express
        log: list = []
        obs = LogObserver(log)
        seg_a = SourceRoute(src=a, dst=c, ports=(2,), switch_path=(sw,))
        seg_b = SourceRoute(src=b, dst=c, ports=(2,), switch_path=(sw,))
        worms = {
            "A": _launch_at(sim, fabric, seg_a, b"z" * 500, obs, "A"),
            "B": _launch_at(sim, fabric, seg_b, b"z" * 500, obs, "B",
                            at=stagger_ns),
        }
        sim.run()
        return _records(worms), log, fabric

    def test_contender_before_switch_acquire_demotes(self):
        """t1 lands before A's switch-output acquire time: A's tail is
        demoted back to the stepped generator mid-flight."""
        express, stepped = _run_both(lambda e: self._staggered(e, 10.0))
        _assert_equivalent(express, stepped)
        # A was counted as a hit at launch but finished some hops stepped.
        assert express[2].express_stats.hits == 1
        assert express[2].express_stats.stepped_hops > 0

    def test_same_instant_contenders(self):
        """A and B launched at the same timestamp (A first)."""
        _assert_equivalent(*_run_both(lambda e: self._staggered(e, 0.0)))

    def test_late_contender_materializes_holds(self):
        """B launches after A's header arrived: every closed-form
        acquire has matured, so A's holds materialize and B blocks on
        the real resource until A's tail drains."""
        express, stepped = _run_both(lambda e: self._staggered(e, 2_000.0))
        _assert_equivalent(express, stepped)
        records = express[0]
        assert records["B"][3] > 0  # blocked_ns
        assert express[2].express_stats.hits == 1

    def _pileup(self, express: bool):
        """Three worms funnelling into one output back to back."""
        sim, fabric, sw, a, b, c = _single_switch()
        fabric.express_enabled = express
        log: list = []
        obs = LogObserver(log)
        seg_a = SourceRoute(src=a, dst=c, ports=(2,), switch_path=(sw,))
        seg_b = SourceRoute(src=b, dst=c, ports=(2,), switch_path=(sw,))
        worms = {
            "A": _launch_at(sim, fabric, seg_a, b"p" * 800, obs, "A"),
            "B": _launch_at(sim, fabric, seg_b, b"p" * 400, obs, "B",
                            at=100.0),
            "C": _launch_at(sim, fabric, seg_a, b"p" * 200, obs, "C",
                            at=200.0),
        }
        sim.run()
        return _records(worms), log, fabric

    def test_three_worm_pileup(self):
        _assert_equivalent(*_run_both(self._pileup))


class TestGate:
    def _gated(self, express: bool, contender_at=None):
        sim, fabric, sw, a, b, c = _single_switch()
        fabric.express_enabled = express
        log: list = []
        gate = sim.event("buffer-free")
        obs_gated = LogObserver(log, gate=gate)
        obs_plain = LogObserver(log)
        seg_a = SourceRoute(src=a, dst=c, ports=(2,), switch_path=(sw,))
        worms = {
            "A": _launch_at(sim, fabric, seg_a, b"g" * 64, obs_gated, "A"),
        }
        if contender_at is not None:
            seg_b = SourceRoute(src=b, dst=c, ports=(2,), switch_path=(sw,))
            worms["B"] = _launch_at(sim, fabric, seg_b, b"g" * 64,
                                    obs_plain, "B", at=contender_at)
        sim.schedule(50_000.0, gate.succeed)
        sim.run()
        return _records(worms), log, fabric

    def test_gate_stall_demotes_tail(self):
        """on_header returns a gate: the express tail demotes to a
        process that waits it out, channels held."""
        express, stepped = _run_both(lambda e: self._gated(e))
        _assert_equivalent(express, stepped)
        records = express[0]
        assert records["A"][1] < 1_000      # header before the stall
        assert records["A"][2] >= 50_000    # completion after the gate

    def test_contender_during_gate_stall(self):
        """A is stalled on its gate when B launches: A's (mature)
        holds materialize and B queues behind the real resource."""
        express, stepped = _run_both(lambda e: self._gated(e, 1_000.0))
        _assert_equivalent(express, stepped)
        records = express[0]
        assert records["B"][2] > 50_000     # B finished after A's gate
        assert records["B"][3] > 0          # and accrued blocking time


class TestSelfDeadlock:
    def _deadlock_net(self):
        topo = Topology()
        s1 = topo.add_switch(n_ports=4)
        s2 = topo.add_switch(n_ports=4)
        topo.connect(s1, 0, s2, 0)
        topo.connect(s1, 1, s2, 1)
        a = topo.attach_host(s1, 2, name="a")
        b = topo.attach_host(s2, 2, name="b")
        sim = Simulator()
        fabric = Fabric(sim, topo, Timings())
        # s1 ->(0) s2 ->(1) s1 ->(0) s2: reuses the port-0 channel.
        seg = SourceRoute(src=a, dst=b, ports=(0, 1, 0, 2),
                          switch_path=(s1, s2, s1, s2))
        return sim, fabric, seg

    @pytest.mark.parametrize("express", [True, False])
    def test_reentrant_route_still_raises(self, express):
        """A self-intersecting route is express-ineligible and must
        keep failing loudly from the stepped acquire."""
        sim, fabric, seg = self._deadlock_net()
        fabric.express_enabled = express
        log: list = []
        _launch_at(sim, fabric, seg, b"x", LogObserver(log), 0)
        with pytest.raises(SimulationError, match="re-enters"):
            sim.run()
        assert fabric.express_stats.hits == 0


class TestItbCutThrough:
    def _fig8_itb(self, express: bool) -> tuple:
        config = NetworkConfig(
            firmware="itb", routing="updown",
            timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
        )
        net = build_network("fig6", config=config)
        net.fabric.express_enabled = express
        paths = fig6_paths(net.topo, net.roles)
        result = net.ping_pong(
            "host1", "host2", size=256, iterations=5,
            route_ab=paths.itb5, route_ba=paths.rev2,
        )
        return result.mean_ns, net.total_stats(), net.fabric

    def test_itb_reinjection_equivalent(self):
        """The fig8 in-transit path (ejection + cut-through
        re-injection at the ITB host) times identically per lane."""
        ex_mean, ex_stats, ex_fabric = self._fig8_itb(True)
        st_mean, st_stats, _ = self._fig8_itb(False)
        assert ex_mean == st_mean
        assert ex_stats == st_stats
        assert ex_fabric.express_stats.hits > 0


class TestSpanTreeEquivalence:
    """Both worm lanes must emit *identical* causal span trees: same
    names, components, statuses, and bit-identical timestamps (the
    express lane replays the stepped float-addition clock).  Signatures
    canonicalize away span-id assignment order; the uncontended GM
    scenario is additionally byte-identical as a dump."""

    def _staggered_traced(self, express: bool, stagger_ns: float):
        sim, fabric, sw, a, b, c = _single_switch()
        fabric.express_enabled = express
        fabric.tracer = SpanTracer()
        log: list = []
        obs = LogObserver(log)
        seg_a = SourceRoute(src=a, dst=c, ports=(2,), switch_path=(sw,))
        seg_b = SourceRoute(src=b, dst=c, ports=(2,), switch_path=(sw,))
        _launch_at(sim, fabric, seg_a, b"z" * 500, obs, "A")
        _launch_at(sim, fabric, seg_b, b"z" * 500, obs, "B", at=stagger_ns)
        sim.run()
        return fabric.tracer

    @pytest.mark.parametrize("stagger_ns", [0.0, 10.0, 2_000.0, 10_000.0])
    def test_contended_wire_spans_identical(self, stagger_ns):
        ex = self._staggered_traced(True, stagger_ns)
        st = self._staggered_traced(False, stagger_ns)
        assert len(ex.spans) == len(st.spans) > 0
        assert tree_signature(ex.spans) == tree_signature(st.spans)

    def _gated_traced(self, express: bool):
        sim, fabric, sw, a, b, c = _single_switch()
        fabric.express_enabled = express
        fabric.tracer = SpanTracer()
        log: list = []
        gate = sim.event("buffer-free")
        seg_a = SourceRoute(src=a, dst=c, ports=(2,), switch_path=(sw,))
        _launch_at(sim, fabric, seg_a, b"g" * 64, LogObserver(log, gate), "A")
        sim.schedule(50_000.0, gate.succeed)
        sim.run()
        return fabric.tracer

    def test_gate_stall_spans_identical(self):
        ex, st = self._gated_traced(True), self._gated_traced(False)
        assert tree_signature(ex.spans) == tree_signature(st.spans)

    def _gm_itb_traced(self, express: bool) -> SpanTracer:
        config = NetworkConfig(
            firmware="itb", routing="updown", reliable=True,
            timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
        )
        net = build_network("fig6", config=config)
        net.fabric.express_enabled = express
        net.fabric.tracer = SpanTracer()
        paths = fig6_paths(net.topo, net.roles)
        a, b = net.gm("host1"), net.gm("host2")
        got = []

        def rx():
            while True:
                msg = yield b.receive()
                got.append(msg.tag)

        net.sim.process(rx(), name="rx")
        a.send(b.host, 1024, tag=1, route=paths.itb5)
        net.sim.run(until=10_000_000)
        assert got == [1]
        return net.fabric.tracer

    def test_full_gm_itb_chain_byte_identical_dump(self):
        """The whole GM/ITB stack over both lanes: the canonical span
        dumps match byte for byte."""
        ex, st = self._gm_itb_traced(True), self._gm_itb_traced(False)
        assert len(ex.spans) > 10
        assert ex.dump_json() == st.dump_json()


# ---------------------------------------------------------------------------
# randomized equivalence
# ---------------------------------------------------------------------------


def _star_traffic(traffic, express: bool):
    """Random star-topology traffic: 4 hosts on one switch."""
    topo = Topology()
    sw = topo.add_switch(n_ports=6)
    hosts = [topo.attach_host(sw, p, name=f"h{p}") for p in range(4)]
    sim = Simulator()
    fabric = Fabric(sim, topo, Timings())
    fabric.express_enabled = express
    log: list = []
    obs = LogObserver(log)
    worms = {}
    for tag, (src_i, dst_i, size, at) in enumerate(traffic):
        if src_i == dst_i:
            dst_i = (dst_i + 1) % 4
        seg = SourceRoute(src=hosts[src_i], dst=hosts[dst_i],
                          ports=(dst_i,), switch_path=(sw,))
        worms[tag] = _launch_at(sim, fabric, seg, b"w" * size, obs, tag,
                                at=float(at))
    sim.run()
    return _records(worms), log


@given(
    traffic=st.lists(
        st.tuples(
            st.integers(0, 3),       # src host
            st.integers(0, 3),       # dst host
            st.integers(0, 600),     # payload size
            st.integers(0, 4_000),   # launch time (ns)
        ),
        min_size=1, max_size=12,
    )
)
@settings(max_examples=30, deadline=None)
def test_random_contended_traffic_equivalent(traffic):
    """Random contended traffic through both lanes: per-worm timing
    tuples must match exactly; the observer log must match as a
    multiset (same-timestamp dispatch order is free)."""
    ex_records, ex_log = _star_traffic(traffic, True)
    st_records, st_log = _star_traffic(traffic, False)
    assert ex_records == st_records
    assert sorted(ex_log) == sorted(st_log)


def _saturated_uniform(n_switches, topo_seed, express):
    """Uniform up*/down* traffic at 0.06 B/ns/host: past saturation on
    these fabrics, so worms contend at every switch."""
    net = build_load_network(
        random_irregular(n_switches, seed=topo_seed, hosts_per_switch=2),
        "updown")
    net.fabric.express_enabled = express
    stats = drive_traffic(net, rate_bytes_per_ns_per_host=0.06,
                          packet_size=512, duration_ns=150_000.0,
                          warmup_ns=0.0, seed=7)
    return sorted(stats.latencies_ns), stats.delivered_packets


@pytest.mark.parametrize("n_switches,topo_seed", [
    (8, 2),
    pytest.param(6, 1, marks=pytest.mark.xfail(strict=True, reason=(
        "known divergence, not yet fixed: under saturation on multi-switch"
        " fabrics full express flights change per-packet times against the"
        " stepped reference (59 of 194 sorted latencies): express"
        " header/completion entries rank among same-instant events by"
        " launch, stepped ones by their last hop, so same-instant events"
        " run in another order; two worms launched at the same instant"
        " (hosts 6 and 10 to host 15) then win a shared channel in"
        " opposite order"))),
])
def test_saturated_multiswitch_equivalence(n_switches, topo_seed):
    """Sorted per-packet latencies and delivered counts must not depend
    on the flight mode (``express_enabled=False`` is the stepped
    reference the goldens were captured from)."""
    express = _saturated_uniform(n_switches, topo_seed, True)
    stepped = _saturated_uniform(n_switches, topo_seed, False)
    assert express == stepped


class TestMidRouteContention:
    """Routes contended only past their first channels, on a 5-switch
    line with mid-line crossing hosts.  Every scenario runs express and
    stepped and must produce identical per-worm records and observer
    logs; only the counters distinguish the modes."""

    def _net(self, first_hop_hosts: bool = False):
        """5-switch line with mid-line crossing hosts for contention."""
        topo = Topology()
        sws = [topo.add_switch(n_ports=6) for _ in range(5)]
        for i in range(4):
            topo.connect(sws[i], 4, sws[i + 1], 5)
        src = topo.attach_host(sws[0], 0, name="src")
        dst = topo.attach_host(sws[4], 0, name="dst")
        m1 = topo.attach_host(sws[3], 1, name="m1")
        m2 = topo.attach_host(sws[4], 1, name="m2")
        e1 = topo.attach_host(sws[1], 1, name="e1")
        e2 = topo.attach_host(sws[2], 1, name="e2")
        blocker = None
        if first_hop_hosts:
            b1 = topo.attach_host(sws[0], 2, name="b1")
            b2 = topo.attach_host(sws[1], 2, name="b2")
            blocker = SourceRoute(src=b1, dst=b2, ports=(4, 2),
                                  switch_path=(sws[0], sws[1]))
        sim = Simulator()
        fabric = Fabric(sim, topo, Timings())
        main = SourceRoute(src=src, dst=dst, ports=(4, 4, 4, 4, 0),
                           switch_path=tuple(sws))
        late = SourceRoute(src=m1, dst=m2, ports=(4, 1),
                           switch_path=(sws[3], sws[4]))
        early = SourceRoute(src=e1, dst=e2, ports=(4, 1),
                            switch_path=(sws[1], sws[2]))
        if first_hop_hosts:
            return sim, fabric, sws, main, blocker
        return sim, fabric, sws, main, late, early

    @staticmethod
    def _run_modes(scenario):
        """Run ``scenario(express)`` both ways; return the express
        fabric once records and logs are shown identical."""
        express, stepped = _run_both(scenario)
        _assert_equivalent(express, stepped)
        return express[2]

    def test_late_blocker_falls_back(self):
        """A blocker holding the 4th trunk: the main route runs
        stepped and waits there, exactly as the stepped twin does."""
        def scenario(express):
            sim, fabric, _sws, main, late, _early = self._net()
            fabric.express_enabled = express
            log: list = []
            obs = LogObserver(log)
            worms = {
                "L": _launch_at(sim, fabric, late, b"z" * 400, obs, "L"),
                "M": _launch_at(sim, fabric, main, b"z" * 200, obs, "M",
                                at=10.0),
            }
            sim.run()
            return _records(worms), log, fabric

        stats = self._run_modes(scenario).express_stats
        assert stats.hits == 1                  # only L
        assert stats.fallbacks == 1             # M bailed on the conflict

    def test_down_link_mid_route_kills(self):
        """A dead trunk mid-route: the head is lost at the down channel
        with identical loss timing in both modes."""
        def scenario(express):
            sim, fabric, sws, main, _late, _early = self._net()
            fabric.express_enabled = express
            trunk = next(
                link for link in fabric.topo.links
                if {link.node_a, link.node_b} == {sws[2], sws[3]})
            fabric.set_link_down(trunk.link_id)
            lost: list = []
            fabric.on_worm_lost = lambda worm: lost.append(
                (worm.meta["tag"], sim.now))
            log: list = []
            worms = {"M": _launch_at(sim, fabric, main, b"d" * 256,
                                     LogObserver(log), "M")}
            sim.run()
            return _records(worms), log + lost, fabric

        assert self._run_modes(scenario).express_stats.fallbacks == 1

    def test_early_contender_on_stepped_route(self):
        """A third worm claims the second trunk of a route that fell
        back behind a late blocker: both worms finish identically."""
        def scenario(express):
            sim, fabric, _sws, main, late, early = self._net()
            fabric.express_enabled = express
            log: list = []
            obs = LogObserver(log)
            worms = {
                "L": _launch_at(sim, fabric, late, b"z" * 400, obs, "L"),
                "M": _launch_at(sim, fabric, main, b"z" * 300, obs, "M",
                                at=10.0),
                "E": _launch_at(sim, fabric, early, b"z" * 300, obs, "E",
                                at=20.0),
            }
            sim.run()
            return _records(worms), log, fabric

        self._run_modes(scenario)

    def test_first_hop_blocker_falls_back(self):
        """A conflict on the second channel: the route runs fully
        stepped."""
        def scenario(express):
            sim, fabric, _sws, main, blocker = self._net(
                first_hop_hosts=True)
            fabric.express_enabled = express
            log: list = []
            obs = LogObserver(log)
            worms = {
                "B": _launch_at(sim, fabric, blocker, b"q" * 500, obs, "B"),
                "M": _launch_at(sim, fabric, main, b"q" * 200, obs, "M",
                                at=10.0),
            }
            sim.run()
            return _records(worms), log, fabric

        assert self._run_modes(scenario).express_stats.fallbacks == 1

    def test_mid_route_contention_spans_identical(self):
        """The late-blocker scenario emits the same span tree in both
        modes."""
        def traced(express):
            sim, fabric, _sws, main, late, _early = self._net()
            fabric.express_enabled = express
            fabric.tracer = SpanTracer()
            log: list = []
            obs = LogObserver(log)
            _launch_at(sim, fabric, late, b"s" * 400, obs, "L")
            _launch_at(sim, fabric, main, b"s" * 200, obs, "M", at=10.0)
            sim.run()
            return tree_signature(fabric.tracer.spans)

        assert traced(True) == traced(False)

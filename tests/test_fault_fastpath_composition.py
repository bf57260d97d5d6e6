"""Faults x engine fast paths: the oracle equivalence must survive.

The express worm lane and the batched Stop&Go burst machinery are
pure optimizations: with dynamic faults cutting worms mid-flight and
probabilistic faults dropping packets, a run with the fast paths on
must produce *identical* delivery outcomes — same messages, same
timestamps, same reliability counters — as the stepped hop-by-hop
oracle with them off.
"""

from __future__ import annotations

import gc
import weakref

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.network.faults import FaultEvent, FaultPlan, install_fault_plan
from repro.sim.engine import Timeout
from tests.oracles import packet as oracle


def _interswitch_links(net):
    sw1, sw2 = net.roles["sw1"], net.roles["sw2"]
    return sorted(
        link.link_id for link in net.topo.links
        if {link.node_a, link.node_b} == {sw1, sw2})


def _faulted_burst_run(express: bool):
    """A bursty bidirectional workload under probabilistic + dynamic
    faults; returns (delivery records, counters, express stats)."""
    cfg = NetworkConfig(
        firmware="itb", routing="itb", reliable=True, seed=17,
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    net = build_network("fig6", config=cfg)
    net.fabric.express_enabled = express
    inter = _interswitch_links(net)
    plan = FaultPlan(
        loss_probability=0.15, corrupt_probability=0.05, seed=9,
        events=(
            FaultEvent(kind="link-down", target=inter[0],
                       at_ns=120_000.0, repair_ns=250_000.0),
            FaultEvent(kind="host-down", target=net.roles["itb"],
                       at_ns=500_000.0, repair_ns=200_000.0),
        ),
    )
    install_fault_plan(net, plan)
    sim = net.sim
    a, b = net.gm("host1"), net.gm("host2")
    records = []

    def receiver(gm):
        while True:
            msg = yield gm.receive()
            records.append((gm.host, msg.src, msg.tag, msg.length,
                            sim.now))

    def burst_sender(gm, dst, n, burst, gap_ns):
        # Back-to-back bursts drive the Stop&Go burst lane; the gap
        # lets the window drain between bursts.
        for i in range(n):
            gm.send(dst, 2048, tag=i)
            if (i + 1) % burst == 0:
                yield Timeout(gap_ns)

    sim.process(receiver(a), name="rx-a")
    sim.process(receiver(b), name="rx-b")
    sim.process(burst_sender(a, b.host, 10, 5, 100_000.0), name="tx-a")
    sim.process(burst_sender(b, a.host, 6, 3, 80_000.0), name="tx-b")
    sim.run(until=100_000_000)
    counters = (
        a.messages_sent, b.messages_sent,
        a.messages_received, b.messages_received,
        a.retransmissions, b.retransmissions,
        a.timeouts, b.timeouts,
        a.nacks_sent, b.nacks_sent,
        plan.lost, plan.corrupted, plan.killed_in_flight,
        plan.faults_injected, plan.repairs, plan.remap_events,
    )
    return records, counters, net.fabric.express_stats


class TestFaultFastpathComposition:
    def test_express_and_stepped_identical_under_faults(self):
        ex_records, ex_counters, ex_stats = _faulted_burst_run(True)
        st_records, st_counters, st_stats = _faulted_burst_run(False)
        # Identical deliveries, including exact timestamps.
        assert ex_records == st_records
        assert ex_counters == st_counters
        # Both runs really exercised faults and full delivery.
        delivered_tags = sorted(
            (dst, tag) for dst, _src, tag, _len, _t in ex_records)
        assert delivered_tags == sorted(
            [(4, i) for i in range(10)] + [(2, i) for i in range(6)])
        assert ex_counters[10] + ex_counters[11] > 0  # lost/corrupted
        # And the two runs took different engine paths to get there.
        assert ex_stats.hits > 0
        assert st_stats.hits == 0
        assert st_stats.fallbacks > 0


def _outstanding_linkdown_run(monkeypatch, reuse: bool):
    """A link-down outstanding for ten 10 us reselection intervals under
    a loaded least-loaded selector; returns the degraded orientations
    built, the reselector counters, the final tables and the span dump.

    ``reuse=False`` drops the reselector's degraded router before every
    remap, so each pass rebuilds the orientation and router from
    scratch — the reference the held router must reproduce."""
    import repro.gm.mapper as mapper
    from repro.obs.tracing import configure, disable
    from repro.routing.selectors import MapCongestionView, make_selector
    from repro.topology.generators import random_irregular

    built = []
    real_build = mapper.build_orientation

    def counting_build(topo, root=None):
        built.append(topo)
        return real_build(topo, root=root)

    monkeypatch.setattr(mapper, "build_orientation", counting_build)
    if not reuse:
        real_router = mapper.ItbReselector.degraded_router

        def fresh_router(self, down_links, dead_hosts):
            self._degraded = None
            return real_router(self, down_links, dead_hosts)

        monkeypatch.setattr(mapper.ItbReselector, "degraded_router",
                            fresh_router)
    cfg = NetworkConfig(
        firmware="itb", routing="itb", reliable=True, seed=17,
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    try:
        configure(sample_every=1)
        net = build_network(random_irregular(8, seed=11, hosts_per_switch=2),
                            config=cfg)
        default_host = next(
            r.itb_hosts[0] for s in sorted(net.nics)
            for r in net.nics[s].route_table.entries.values() if r.n_itbs)
        reselector = mapper.ItbReselector(
            net, make_selector("least-loaded",
                               view=MapCongestionView({default_host: 4096.0})),
            interval_ns=10_000.0)
        sw = net.topo.switch_of(default_host)
        down = next(link.link_id for link in net.topo.links
                    if sw in (link.node_a, link.node_b)
                    and net.topo.is_switch(link.node_a)
                    and net.topo.is_switch(link.node_b))
        install_fault_plan(net, FaultPlan(events=(
            FaultEvent(kind="link-down", target=down, at_ns=25_000.0,
                       repair_ns=100_000.0),)))
        net.sim.run(until=200_000)
        tables = {s: dict(net.nics[s].route_table.entries)
                  for s in sorted(net.nics)}
        degraded = [t for t in built if t is not net.topo]
        counters = (reselector.runs, reselector.forced,
                    reselector.pairs_changed, reselector.decisions,
                    reselector.engaged)
        return degraded, counters, tables, net.fabric.tracer.dump_json()
    finally:
        disable()


class TestDegradedRouterReuse:
    def test_outstanding_linkdown_builds_one_degraded_orientation(
            self, monkeypatch):
        degraded, counters, tables, spans = _outstanding_linkdown_run(
            monkeypatch, reuse=True)
        runs, forced, _changed, _decisions, _engaged = counters
        # Passes at 30..120 us plus the fault's own remap at 75 us all
        # remap on the same degraded fabric.
        assert forced >= 3 + 1
        assert len(degraded) == 1
        # (runs, forced, pairs_changed, decisions, engaged) as rebuilding
        # the degraded router on every remap produced them.
        assert counters == (22, 12, 40, 176, 176)
        monkeypatch.undo()
        ref_degraded, ref_counters, ref_tables, ref_spans = \
            _outstanding_linkdown_run(monkeypatch, reuse=False)
        assert len(ref_degraded) == forced - 1  # the repair remap is not degraded
        assert counters == ref_counters
        assert tables == ref_tables
        assert spans == ref_spans


class TestFaultAdaptiveComposition:
    """Faults x adaptive selection: link-down remap is a *forced*
    reselection through the same selector, so a loaded default
    in-transit host must stay avoided across fault and repair, while
    the reliable-GM delivery guarantees hold unchanged."""

    def test_linkdown_remap_with_least_loaded_converges_legal(self):
        from repro.gm.mapper import ItbReselector
        from repro.routing.cdg import is_deadlock_free
        from repro.routing.selectors import (MapCongestionView,
                                             make_selector)
        from repro.topology.generators import random_irregular

        cfg = NetworkConfig(
            firmware="itb", routing="itb", reliable=True, seed=17,
            timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
        )
        topo = random_irregular(8, seed=11, hosts_per_switch=2)
        net = build_network(topo, config=cfg)

        def itb_pairs():
            pairs = []
            for src in sorted(net.nics):
                table = net.nics[src].route_table
                for dst in table.destinations():
                    route = table.entries[dst]
                    if len(route.segments) > 1:
                        pairs.append((src, dst, route))
            return pairs

        pairs = itb_pairs()
        assert pairs, "study fabric must route some pairs via an ITB"
        src, dst, route = pairs[0]
        default_host = route.itb_hosts[0]
        candidates = net.topo.hosts_on(net.topo.switch_of(default_host))
        assert len(candidates) >= 2, "need an alternate split to move to"

        # Load the static pick; every remap must now avoid it.
        view = MapCongestionView({default_host: 4096.0})
        reselector = ItbReselector(
            net, make_selector("least-loaded", view=view))

        # Cut the first inter-switch hop of the pair's static route.
        hop = route.segments[0].switch_path[:2]
        down = next(link.link_id for link in net.topo.links
                    if {link.node_a, link.node_b} == set(hop))
        plan = FaultPlan(
            loss_probability=0.1, corrupt_probability=0.05, seed=9,
            events=(FaultEvent(kind="link-down", target=down,
                               at_ns=120_000.0, repair_ns=250_000.0),),
        )
        install_fault_plan(net, plan)

        sim = net.sim
        a, b = net.gm_hosts[src], net.gm_hosts[dst]
        records = []

        def receiver(gm):
            while True:
                msg = yield gm.receive()
                records.append((gm.host, msg.src, msg.tag))

        def sender(gm, to, n, gap_ns):
            for i in range(n):
                gm.send(to, 2048, tag=i)
                yield Timeout(gap_ns)

        sim.process(receiver(a), name="rx-a")
        sim.process(receiver(b), name="rx-b")
        sim.process(sender(a, dst, 8, 60_000.0), name="tx-a")
        sim.process(sender(b, src, 8, 60_000.0), name="tx-b")
        sim.run(until=100_000_000)

        # Reliable GM delivered everything, in the face of the fault.
        assert sorted(records) == sorted(
            [(dst, src, i) for i in range(8)]
            + [(src, dst, i) for i in range(8)])
        assert a.messages_received == 8 and b.messages_received == 8

        # The fault really forced reselection through the selector.
        assert plan.remap_events > 0
        assert reselector.forced >= 1
        assert reselector.selector.engaged > 0

        # Converged state: a legal alternate split off the loaded host.
        post = itb_pairs()
        assert post, "repair must restore the ITB routes"
        loaded_switch = net.topo.switch_of(default_host)
        for _s, _d, r in post:
            for host, nxt in zip(r.itb_hosts, r.segments[1:]):
                assert nxt.src == host
                assert host in net.topo.hosts_on(net.topo.switch_of(host))
                if net.topo.switch_of(host) == loaded_switch:
                    assert host != default_host
        assert is_deadlock_free(
            net.topo,
            [r for s in sorted(net.nics)
             for r in net.nics[s].route_table.entries.values()])


def _memo_net():
    from repro.topology.generators import random_irregular

    cfg = NetworkConfig(
        firmware="itb", routing="itb", reliable=True, seed=17,
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    return build_network(random_irregular(8, seed=11, hosts_per_switch=2),
                         config=cfg)


def _itb_pair(net):
    """The first (src, dst, route) whose route crosses an in-transit host
    after an inter-switch cable."""
    for src in sorted(net.nics):
        table = net.nics[src].route_table
        for dst in table.destinations():
            route = table.lookup(dst)
            if route.n_itbs and len(route.segments[0].switch_path) >= 2:
                return src, dst, route
    raise AssertionError("the fabric routes no pair via an in-transit host")


def _send_one(net, src, dst):
    """Hand one 64-byte packet to ``src``'s MCP and run until delivered."""
    tp = net.nics[src].firmware.host_send(dst=dst, payload_len=64)
    net.sim.run(until=net.sim.now + 100_000.0)
    assert tp.t_deliver is not None
    return tp


class TestHeaderMemoScope:
    """Route headers are memoized per route object: a remap or a
    reselection installs new objects, so the next packet carries the new
    route's bytes, and the memo never outlives its network."""

    def test_linkdown_remap_sends_the_new_route(self):
        net = _memo_net()
        src, dst, route = _itb_pair(net)
        before = _send_one(net, src, dst)
        assert before.image.data == oracle.encode_packet(route, 64).data
        hop = set(route.segments[0].switch_path[:2])
        down = next(link.link_id for link in net.topo.links
                    if {link.node_a, link.node_b} == hop)
        plan = FaultPlan(events=(FaultEvent(
            kind="link-down", target=down, at_ns=net.sim.now + 1_000.0),))
        install_fault_plan(net, plan)
        net.sim.run(until=net.sim.now + 100_000.0)  # past the remap
        assert plan.remap_events == 1
        new = net.nics[src].route_table.lookup(dst)
        assert new != route
        after = _send_one(net, src, dst)
        assert after.route is new
        assert after.image.data == oracle.encode_packet(new, 64).data
        assert after.image.data != before.image.data

    def test_reselection_sends_the_new_route(self):
        from repro.gm.mapper import ItbReselector
        from repro.routing.selectors import MapCongestionView, make_selector

        net = _memo_net()
        src, dst, route = _itb_pair(net)
        before = _send_one(net, src, dst)
        assert before.image.data == oracle.encode_packet(route, 64).data
        view = MapCongestionView({route.itb_hosts[0]: 4096.0})
        reselector = ItbReselector(net, make_selector("least-loaded",
                                                      view=view))
        assert reselector.reselect() > 0
        new = net.nics[src].route_table.lookup(dst)
        assert new.itb_hosts != route.itb_hosts
        after = _send_one(net, src, dst)
        assert after.route is new
        assert after.image.data == oracle.encode_packet(new, 64).data
        assert after.image.data != before.image.data

    def test_memo_dies_with_the_network(self):
        net = _memo_net()
        src, dst, route = _itb_pair(net)
        _send_one(net, src, dst)
        ref = weakref.ref(route)
        del net, route
        gc.collect()
        assert ref() is None

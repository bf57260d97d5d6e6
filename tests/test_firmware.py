"""Tests for the MCP firmware: original GM vs the ITB modification."""

from __future__ import annotations

import pytest

from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.paths import fig6_paths
from repro.core.builder import build_network
from repro.sim.engine import Timeout
from tests.conftest import send_traced


def quiet_config(**kw):
    defaults = dict(
        firmware="itb",
        routing="updown",
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    defaults.update(kw)
    return NetworkConfig(**defaults)


def send_one(net, src_role, dst_role, size=64, route=None):
    """Send one packet firmware-level and run to delivery (or drop)."""
    src = net.roles[src_role]
    dst = net.roles[dst_role]
    done = net.sim.event("one-packet")
    holder = {}

    def on_final(tp):
        holder["tp"] = tp
        done.succeed(tp)

    net.nics[src].firmware.host_send(
        dst=dst, payload_len=size, gm={"last": True},
        on_delivered=on_final, route=route,
    )
    net.sim.run_until_event(done)
    return holder["tp"]


class TestNormalPath:
    def test_delivery_end_to_end(self):
        net = build_network("fig6", config=quiet_config())
        tp = send_one(net, "host1", "host2")
        assert not tp.dropped
        assert tp.t_inject is not None
        assert tp.t_complete_dst > tp.t_inject
        assert tp.t_deliver > tp.t_complete_dst

    def test_stats_accumulate(self):
        net = build_network("fig6", config=quiet_config())
        for _ in range(3):
            send_one(net, "host1", "host2")
        assert net.nic("host1").stats.packets_sent == 3
        assert net.nic("host2").stats.packets_received == 3
        assert net.nic("host2").stats.bytes_received > 0

    def test_recv_path_overhead_delta(self):
        """The modified firmware's receive path is exactly
        itb_check_cycles slower per packet than the original's."""
        t = Timings().with_overrides(host_jitter_sigma_ns=0.0)
        lat = {}
        for fw in ("original", "itb"):
            net = build_network("fig6", config=quiet_config(firmware=fw,
                                                            timings=t))
            tp = send_one(net, "host1", "host2")
            lat[fw] = tp.t_deliver - tp.t_inject
        assert lat["itb"] - lat["original"] == pytest.approx(
            t.itb_check_ns, abs=1e-6)

    def test_sends_serialize_on_engine(self):
        """Two back-to-back sends share one send DMA: second injects
        only after the first drains."""
        net = build_network("fig6", config=quiet_config())
        tps = []
        done = net.sim.event("both")

        def on_final(tp):
            tps.append(tp)
            if len(tps) == 2:
                done.succeed()

        fw = net.nics[net.roles["host1"]].firmware
        for _ in range(2):
            fw.host_send(dst=net.roles["host2"], payload_len=2000,
                         gm={"last": True}, on_delivered=on_final)
        net.sim.run_until_event(done)
        first, second = sorted(tps, key=lambda tp: tp.t_inject)
        assert second.t_inject >= first.t_complete_dst


class TestItbForwarding:
    def test_original_firmware_drops_itb_packets(self):
        """The stock MCP does not know the new packet type."""
        net = build_network("fig6", config=quiet_config(firmware="original"))
        paths = fig6_paths(net.topo, net.roles)
        tp = send_one(net, "host1", "host2", route=paths.itb5)
        assert tp.dropped
        assert tp.drop_reason == "unknown-type"
        assert net.nic("itb").stats.packets_dropped_unknown == 1

    def test_modified_firmware_forwards(self):
        net = build_network("fig6", config=quiet_config())
        paths = fig6_paths(net.topo, net.roles)
        tp = send_one(net, "host1", "host2", route=paths.itb5)
        assert not tp.dropped
        assert net.nic("itb").stats.packets_forwarded == 1
        assert net.nic("itb").stats.itb_immediate == 1
        assert net.nic("itb").stats.itb_pending == 0

    def test_cut_through_reinjection(self):
        """Re-injection starts before reception of the packet
        completes — the virtual cut-through property of Section 4."""
        net = build_network("fig6", config=quiet_config())
        paths = fig6_paths(net.topo, net.roles)
        tp, tracer = send_traced(net, net.roles["host1"], net.roles["host2"],
                                 size=4096, route=paths.itb5)
        assert not tp.dropped
        wires = {s.attrs["seg"]: s for s in tracer.spans if s.name == "wire"}
        assert sorted(wires) == [0, 1]
        assert wires[1].start < wires[0].end

    def test_pending_path_when_engine_busy(self):
        """An in-transit packet arriving while the transit host's send
        engine is busy goes through the ITB-pending path."""
        net = build_network("fig6", config=quiet_config())
        paths = fig6_paths(net.topo, net.roles)
        itb_host = net.roles["itb"]
        h1, h2 = net.roles["host1"], net.roles["host2"]
        done = net.sim.event("fwd-done")

        def keep_engine_busy():
            # The transit host streams its own large packet; the
            # in-transit packet arrives while that drains.
            net.nics[itb_host].firmware.host_send(
                dst=h2, payload_len=4096, gm={"last": True})
            yield Timeout(0)

        def on_final(tp):
            done.succeed(tp)

        net.sim.process(keep_engine_busy(), name="busy")

        def send_later():
            # Arrive while the transit host's 4 KB packet drains onto
            # the wire (SDMA ~9 us + wire ~26 us).
            yield Timeout(12_000.0)
            net.nics[h1].firmware.host_send(
                dst=h2, payload_len=64, gm={"last": True},
                on_delivered=on_final, route=paths.itb5)

        net.sim.process(send_later(), name="later")
        tp = net.sim.run_until_event(done)
        assert not tp.dropped
        assert net.nic("itb").stats.itb_pending == 1

    def test_multi_itb_route(self):
        """A route through two in-transit hosts forwards twice."""
        from repro.routing.routes import ItbRoute, SourceRoute
        from repro.topology.graph import PortKind, Topology

        topo = Topology()
        sws = [topo.add_switch(n_ports=8) for _ in range(3)]
        topo.connect(sws[0], 0, sws[1], 0, kind=PortKind.SAN)
        topo.connect(sws[1], 1, sws[2], 1, kind=PortKind.SAN)
        src = topo.attach_host(sws[0], 2, name="src")
        t1 = topo.attach_host(sws[1], 2, name="t1")
        t2 = topo.attach_host(sws[2], 2, name="t2")
        dst = topo.attach_host(sws[2], 3, name="dst")
        route = ItbRoute((
            SourceRoute(src=src, dst=t1, ports=(0, 2),
                        switch_path=(sws[0], sws[1])),
            SourceRoute(src=t1, dst=t2, ports=(1, 2),
                        switch_path=(sws[1], sws[2])),
            SourceRoute(src=t2, dst=dst, ports=(3,),
                        switch_path=(sws[2],)),
        ))
        net = build_network(topo, config=quiet_config())
        done = net.sim.event("multi-itb")
        net.nics[src].firmware.host_send(
            dst=dst, payload_len=256, gm={"last": True},
            on_delivered=lambda tp: done.succeed(tp), route=route)
        tp = net.sim.run_until_event(done)
        assert not tp.dropped
        assert net.nics[t1].stats.packets_forwarded == 1
        assert net.nics[t2].stats.packets_forwarded == 1
        assert len(tp.itb_times) == 2

    def test_forward_does_not_touch_host(self):
        """In-transit packets never cross the transit host's PCI bus."""
        net = build_network("fig6", config=quiet_config())
        paths = fig6_paths(net.topo, net.roles)
        delivered_at_transit = []
        net.gm_hosts[net.roles["itb"]].nic.deliver_up = (
            lambda tp: delivered_at_transit.append(tp))
        send_one(net, "host1", "host2", route=paths.itb5)
        assert delivered_at_transit == []


class TestBackpressure:
    def test_fixed_buffers_stall_the_wire(self):
        """With both receive buffers busy, a third packet stalls
        (recv_blocked_ns grows) instead of being dropped."""
        net = build_network("fig6", config=quiet_config())
        h1, h2 = net.roles["host1"], net.roles["host2"]
        itb = net.roles["itb"]
        n_done = {"n": 0}
        done = net.sim.event("all-delivered")

        def on_final(tp):
            assert not tp.dropped
            n_done["n"] += 1
            if n_done["n"] == 6:
                done.succeed()

        # Large packets from two senders swamp host2's two buffers
        # (the RDMA drain is slower than the wire).
        for sender in (h1, itb):
            for _ in range(3):
                net.nics[sender].firmware.host_send(
                    dst=h2, payload_len=4096, gm={"last": True},
                    on_delivered=on_final)
        net.sim.run_until_event(done)
        assert n_done["n"] == 6
        assert net.nic("host2").stats.packets_received == 6

"""Causal span tracing: span model, GM-chain propagation, sampling,
fault kills, and builder-level configuration.

The tracer's contract (``docs/TRACING.md``):

* a sampled GM message produces one connected span tree covering
  gm_send -> send queue -> wire (per hop) -> receive -> gm_recv, with
  ack/nack control packets as child subtrees,
* unsampled messages leave zero spans (and the disabled tracer leaves
  the fabric attribute ``None`` — nothing in the hot path allocates),
* retransmissions appear as retry-children of the first attempt and
  worms cut by fault injection close with status ``"killed"``,
* dumps are canonical: byte-stable serialization, lossless reload.
"""

from __future__ import annotations

import pytest

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.workloads import drive_traffic
from repro.network.faults import FaultEvent, FaultPlan, install_fault_plan
from repro.obs.tracing import (
    SpanTracer,
    configure,
    configured_sample_every,
    disable,
    load_dump,
    span_tree,
    tree_signature,
)
from repro.sim.engine import Timeout


def build(reliable=True, tracer=None, routing="updown", **kw):
    cfg = NetworkConfig(
        firmware="itb", routing=routing, reliable=reliable,
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0), **kw,
    )
    net = build_network("fig6", config=cfg)
    if tracer is not None:
        net.fabric.tracer = tracer
    return net


def send_messages(net, n=1, size=512, until=10_000_000.0):
    a, b = net.gm("host1"), net.gm("host2")
    got = []

    def rx():
        while True:
            msg = yield b.receive()
            got.append(msg.tag)

    def tx():
        for i in range(n):
            a.send(b.host, size, tag=i)
            yield Timeout(30_000.0)

    net.sim.process(rx(), name="rx")
    net.sim.process(tx(), name="tx")
    net.sim.run(until=until)
    return got


# ---------------------------------------------------------------------------
# span model
# ---------------------------------------------------------------------------


class TestSpanModel:
    def test_close_is_idempotent_first_wins(self):
        tr = SpanTracer()
        s = tr.begin("message", 10.0)
        s.close(20.0, "ok")
        s.close(30.0, "killed")
        assert s.end == 20.0
        assert s.status == "ok"
        assert s.duration_ns == 10.0

    def test_parentage_assigns_trace_ids(self):
        tr = SpanTracer()
        r1 = tr.begin("message", 0.0)
        c1 = tr.begin("attempt", 1.0, parent=r1)
        r2 = tr.begin("message", 2.0)
        assert c1.trace_id == r1.trace_id
        assert c1.parent_id == r1.span_id
        assert r2.trace_id != r1.trace_id
        assert tr.roots() == [r1, r2]
        assert tr.spans_of(r1.trace_id) == [r1, c1]

    def test_packet_trace_stage_keys(self):
        """A stage opened at one state machine under an explicit key is
        finished at another by key alone."""
        tr = SpanTracer()
        root = tr.begin("message", 0.0)
        attempt = tr.begin("attempt", 0.0, parent=root)
        ctx = tr.packet(root, attempt)
        ctx.begin("send_queue", 1.0, key="queue")
        ctx.begin("mcp_send", 2.0, key="dispatch")
        assert ctx.finish("queue", 3.0).name == "send_queue"
        assert ctx.finish("dispatch", 4.0).name == "mcp_send"
        assert ctx.finish("queue", 5.0) is None  # already drained
        assert all(s.end is not None for s in tr.spans if s.name != "message"
                   and s.name != "attempt")

    def test_sampling_every_nth(self):
        tr = SpanTracer(sample_every=3)
        assert [tr.sample() for _ in range(7)] == [
            True, False, False, True, False, False, True]

    def test_sampling_zero_admits_nothing(self):
        tr = SpanTracer(sample_every=0)
        assert not any(tr.sample() for _ in range(5))

    def test_dump_roundtrip_lossless(self):
        tr = SpanTracer(sample_every=2)
        root = tr.begin("message", 0.0, component="gm[a]", tag=7)
        tr.begin("wire", 1.0, parent=root, component="wire[a->b]").close(5.0)
        root.close(6.0)
        recs = load_dump(tr.dump_json())
        assert recs == [s.to_dict() for s in tr.spans]
        assert tr.dump_json() == tr.dump_json()

    def test_load_dump_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="not a span dump"):
            load_dump('{"format": "something-else", "spans": []}')

    def test_tree_signature_ignores_id_assignment_order(self):
        """Two tracers recording the same spans in different creation
        order produce equal signatures."""
        a, b = SpanTracer(), SpanTracer()
        ra = a.begin("message", 0.0)
        a.begin("x", 1.0, parent=ra).close(2.0)
        a.begin("y", 1.0, parent=ra).close(3.0)
        ra.close(4.0)
        rb = b.begin("message", 0.0)
        b.begin("y", 1.0, parent=rb).close(3.0)
        b.begin("x", 1.0, parent=rb).close(2.0)
        rb.close(4.0)
        assert tree_signature(a.spans) == tree_signature(b.spans)

    def test_span_tree_nests_and_sorts(self):
        tr = SpanTracer()
        root = tr.begin("message", 0.0)
        tr.begin("late", 5.0, parent=root).close(6.0)
        tr.begin("early", 1.0, parent=root).close(2.0)
        roots = span_tree(tr.spans)
        assert len(roots) == 1
        assert [c["name"] for c in roots[0]["children"]] == ["early", "late"]


# ---------------------------------------------------------------------------
# end-to-end propagation through the GM stack
# ---------------------------------------------------------------------------


class TestGmChain:
    def test_single_send_full_chain(self):
        tracer = SpanTracer()
        net = build(tracer=tracer)
        got = send_messages(net, n=1)
        assert got == [0]
        roots = tracer.roots()
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "message"
        assert root.status == "ok"
        names = {s.name for s in tracer.spans_of(root.trace_id)}
        assert {"message", "host_send", "attempt", "sdma", "send_queue",
                "mcp_send", "wire", "recv", "gm_recv"} <= names
        # The destination acks GM data packets; the control subtree
        # hangs off the same trace.
        assert "ack" in names

    def test_all_spans_share_component_labels(self):
        tracer = SpanTracer()
        net = build(tracer=tracer)
        send_messages(net, n=1)
        comps = {s.component for s in tracer.spans}
        assert any(c.startswith("gm[") for c in comps)
        assert any(c.startswith("mcp[") for c in comps)
        assert any(c.startswith("wire[") for c in comps)

    def test_wire_span_carries_hops(self):
        tracer = SpanTracer()
        net = build(tracer=tracer)
        send_messages(net, n=1)
        wires = [s for s in tracer.spans if s.name == "wire"]
        assert wires, "no wire spans recorded"
        hop_parents = {s.parent_id for s in tracer.spans
                       if s.name.startswith("hop")}
        assert {w.span_id for w in wires} & hop_parents

    def test_multi_packet_message_one_root(self):
        """A message above the MTU fans into several attempt spans
        under one root."""
        tracer = SpanTracer()
        net = build(tracer=tracer)
        send_messages(net, n=1, size=10_000)
        roots = tracer.roots()
        assert len(roots) == 1
        attempts = [s for s in tracer.spans if s.name == "attempt"]
        assert len(attempts) > 1

    def test_sampling_every_second_message(self):
        tracer = SpanTracer(sample_every=2)
        net = build(tracer=tracer)
        got = send_messages(net, n=4, until=40_000_000.0)
        assert sorted(got) == [0, 1, 2, 3]
        assert len(tracer.roots()) == 2

    def test_disabled_tracer_records_nothing(self):
        net = build()
        assert net.fabric.tracer is None
        got = send_messages(net, n=2, until=20_000_000.0)
        assert sorted(got) == [0, 1]

    def test_tracing_changes_no_latency(self):
        """Open-loop traffic delivers every packet at the same instant
        with no tracer, a tracer that samples nothing (which records no
        span) and a tracer that samples every message."""
        def latencies(tracer):
            net = build(tracer=tracer)
            return drive_traffic(net, rate_bytes_per_ns_per_host=0.06,
                                 packet_size=512, duration_ns=150_000.0,
                                 seed=7).latencies_ns

        idle, full = SpanTracer(sample_every=0), SpanTracer()
        plain = latencies(None)
        assert plain
        assert latencies(idle) == plain
        assert latencies(full) == plain
        assert idle.spans == [] and full.spans

    def test_itb_route_records_buffer_and_reinjection(self):
        """An ITB route's trace shows ejection, buffer residency, and
        re-injection stages at the in-transit host."""
        tracer = SpanTracer()
        net = build(tracer=tracer, routing="itb")
        from repro.harness.paths import fig6_paths

        paths = fig6_paths(net.topo, net.roles)
        a, b = net.gm("host1"), net.gm("host2")
        got = []

        def rx():
            while True:
                msg = yield b.receive()
                got.append(msg.tag)

        net.sim.process(rx(), name="rx")
        a.send(b.host, 512, tag=9, route=paths.itb5)
        net.sim.run(until=10_000_000)
        assert got == [9]
        names = {s.name for s in tracer.spans}
        assert "itb_buffer" in names
        assert "itb_detect" in names
        assert "itb_program" in names or "itb_queue" in names
        # Two wire segments (source -> ITB host, ITB host -> dest); the
        # ack packet contributes further wire spans to the same trace.
        data_trace = tracer.roots()[0].trace_id
        segs = {s.attrs.get("seg") for s in tracer.spans_of(data_trace)
                if s.name == "wire"}
        assert {0, 1} <= segs


# ---------------------------------------------------------------------------
# faults, retransmissions, kills
# ---------------------------------------------------------------------------


class TestFaults:
    def _interswitch_links(self, net):
        sw1, sw2 = net.roles["sw1"], net.roles["sw2"]
        return sorted(
            link.link_id for link in net.topo.links
            if {link.node_a, link.node_b} == {sw1, sw2})

    def test_killed_worm_closes_span_and_retry_children_appear(self):
        """Every inter-switch cable dies under traffic: cut worms close
        their wire spans ``"killed"`` and the delivering retransmission
        appears as a retry-child of the first attempt."""
        tracer = SpanTracer()
        net = build(reliable=True, routing="itb", tracer=tracer)
        plan = FaultPlan(events=tuple(
            FaultEvent(kind="link-down", target=link_id, at_ns=2_000.0,
                       repair_ns=500_000.0)
            for link_id in self._interswitch_links(net)))
        install_fault_plan(net, plan)
        a, b = net.gm("host1"), net.gm("host2")
        got = []

        def rx():
            while True:
                msg = yield b.receive()
                got.append(msg.tag)

        def tx():
            yield Timeout(100.0)  # in flight when the cables die
            a.send(b.host, 4096, tag=1)

        net.sim.process(rx(), name="rx")
        net.sim.process(tx(), name="tx")
        net.sim.run(until=60_000_000)
        assert got == [1]
        statuses = {s.status for s in tracer.spans}
        assert "killed" in statuses
        retries = [s for s in tracer.spans if s.name == "attempt"
                   and s.attrs.get("retry", 0) > 0]
        assert retries, "no retransmission attempt spans"
        # Retry attempts parent under the first attempt of their seq.
        by_id = {s.span_id: s for s in tracer.spans}
        for r in retries:
            assert by_id[r.parent_id].name == "attempt"
        # The message root still converged.
        roots = [s for s in tracer.roots() if s.name == "message"]
        assert roots and roots[0].status == "ok"

    def test_no_route_closes_attempt(self):
        """A send with no route to the destination closes the attempt
        span ``"no-route"`` instead of leaking it open."""
        tracer = SpanTracer()
        net = build(reliable=True, tracer=tracer)
        a = net.gm("host1")
        # Point at a host id the route tables don't know.
        bogus = max(net.nics) + 1000
        a.send(bogus, 256, tag=3)
        net.sim.run(until=200_000)
        attempts = [s for s in tracer.spans if s.name == "attempt"]
        assert attempts
        assert all(s.status == "no-route" for s in attempts if s.end
                   is not None and s.status != "open")


# ---------------------------------------------------------------------------
# builder-level configuration
# ---------------------------------------------------------------------------


class TestConfigure:
    def test_configure_attaches_tracer_to_every_build(self):
        try:
            configure(sample_every=4)
            assert configured_sample_every() == 4
            net = build()
            assert isinstance(net.fabric.tracer, SpanTracer)
            assert net.fabric.tracer.sample_every == 4
        finally:
            disable()
        assert configured_sample_every() is None
        assert build().fabric.tracer is None

    def test_configure_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="sample_every"):
            configure(sample_every=0)

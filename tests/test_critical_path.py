"""Critical-path latency attribution: exactness and category rules.

The analyzer's headline invariant: per-trace category durations sum
**bit exactly** (``float`` equality, no tolerance) to the measured
end-to-end latency ``root.end - root.start``.  Checked on synthetic
span trees exercising each priority rule, then as a property over
every trace of real fig7 / fig8 runs and a fault campaign with
retransmissions.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.exp import ExperimentSpec, Runner
from repro.harness.paths import fig6_paths
from repro.network.faults import FaultEvent, FaultPlan, install_fault_plan
from repro.obs.critical_path import (
    CATEGORIES,
    breakdown_dump,
    breakdown_trace,
    observe_breakdowns,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import SpanTracer, configure, disable, load_dump
from repro.sim.engine import Timeout
from tests.conftest import send_traced


def assert_exact(breakdown):
    """The bit-exactness invariant, spelled once."""
    assert float(breakdown.exact_total()) == breakdown.total_ns
    assert all(f >= 0 for f in breakdown.fractions.values())
    assert set(breakdown.fractions) == set(CATEGORIES)


# ---------------------------------------------------------------------------
# synthetic trees: one per priority rule
# ---------------------------------------------------------------------------


class TestSyntheticTrees:
    def _chain(self):
        """message > attempt > sdma, wire, recv — no overlap."""
        tr = SpanTracer()
        root = tr.begin("message", 0.1)
        att = tr.begin("attempt", 0.1, parent=root)
        tr.begin("sdma", 0.1, parent=att).close(1.3)
        tr.begin("wire", 1.3, parent=att).close(4.7)
        tr.begin("recv", 4.7, parent=att).close(9.2)
        att.close(9.2)
        root.close(9.2)
        return tr

    def test_simple_chain_partitions_exactly(self):
        b = breakdown_trace(self._chain().spans)
        assert_exact(b)
        cats = b.categories
        assert cats["host"] == 1.2
        assert cats["recv"] == float(Fraction(9.2) - Fraction(4.7))
        assert cats["retransmit"] == 0.0

    def test_cut_through_overlap_wire_wins(self):
        """The ITB buffer residency overlaps the next wire segment;
        only the non-overlapped part counts as buffer time."""
        tr = SpanTracer()
        root = tr.begin("message", 0.0)
        att = tr.begin("attempt", 0.0, parent=root)
        tr.begin("itb_buffer", 2.0, parent=att).close(8.0)
        tr.begin("wire", 5.0, parent=att).close(10.0)  # overlaps 5..8
        att.close(10.0)
        root.close(10.0)
        b = breakdown_trace(tr.spans)
        assert_exact(b)
        assert b.categories["itb_buffer"] == 3.0  # 2..5 only
        assert b.categories["wire"] == 5.0
        assert b.categories["host"] == 2.0  # 0..2 uninstrumented

    def test_hop_blocking_outranks_wire(self):
        tr = SpanTracer()
        root = tr.begin("message", 0.0)
        att = tr.begin("attempt", 0.0, parent=root)
        wire = tr.begin("wire", 0.0, parent=att)
        tr.begin("hop0", 1.0, parent=wire).close(4.0)  # blocked 3 ns
        wire.close(10.0)
        att.close(10.0)
        root.close(10.0)
        b = breakdown_trace(tr.spans)
        assert_exact(b)
        assert b.categories["switch_blocking"] == 3.0
        assert b.categories["wire"] == 7.0

    def test_recv_wait_outranks_wire(self):
        """Receive-buffer backpressure during wire streaming is buffer
        time, not wire time."""
        tr = SpanTracer()
        root = tr.begin("message", 0.0)
        att = tr.begin("attempt", 0.0, parent=root)
        tr.begin("wire", 0.0, parent=att).close(10.0)
        tr.begin("recv_wait", 4.0, parent=att).close(6.0)
        att.close(10.0)
        root.close(10.0)
        b = breakdown_trace(tr.spans)
        assert_exact(b)
        assert b.categories["itb_buffer"] == 2.0
        assert b.categories["wire"] == 8.0

    def test_gap_is_retransmit_when_retried(self):
        tr = SpanTracer()
        root = tr.begin("message", 0.0)
        a0 = tr.begin("attempt", 0.0, parent=root, retry=0)
        tr.begin("wire", 0.0, parent=a0).close(3.0)
        a0.close(3.0, "killed")
        a1 = tr.begin("attempt", 8.0, parent=a0, retry=1)
        tr.begin("wire", 8.0, parent=a1).close(11.0)
        a1.close(11.0)
        root.close(11.0)
        b = breakdown_trace(tr.spans)
        assert_exact(b)
        assert b.n_attempts == 2
        assert b.categories["retransmit"] == 5.0  # the 3..8 hole
        assert b.categories["wire"] == 6.0

    def test_gap_is_host_on_clean_single_attempt(self):
        tr = SpanTracer()
        root = tr.begin("message", 0.0)
        att = tr.begin("attempt", 0.0, parent=root)
        tr.begin("wire", 2.0, parent=att).close(5.0)
        att.close(5.0)
        root.close(6.0)
        b = breakdown_trace(tr.spans)
        assert_exact(b)
        assert b.categories["host"] == 3.0  # 0..2 and 5..6
        assert b.categories["retransmit"] == 0.0

    def test_control_subtree_excluded(self):
        """An ack subtree's wire time never claims data-path intervals."""
        tr = SpanTracer()
        root = tr.begin("message", 0.0)
        att = tr.begin("attempt", 0.0, parent=root)
        tr.begin("wire", 0.0, parent=att).close(4.0)
        ack = tr.begin("ack", 4.0, parent=root)
        tr.begin("wire", 4.0, parent=ack).close(9.0)
        ack.close(9.0)
        att.close(4.0)
        root.close(10.0)
        b = breakdown_trace(tr.spans)
        assert_exact(b)
        assert b.categories["wire"] == 4.0
        assert b.categories["host"] == 6.0  # ack window is a data gap

    def test_open_root_returns_none(self):
        tr = SpanTracer()
        tr.begin("message", 0.0)
        assert breakdown_trace(tr.spans) is None
        assert breakdown_dump(tr.spans) == []

    def test_spans_clipped_to_root_window(self):
        """A gm_recv span outliving the root close never inflates the
        total past the measured latency."""
        tr = SpanTracer()
        root = tr.begin("message", 0.0)
        tr.begin("gm_recv", 4.0, parent=root).close(20.0)
        root.close(10.0)
        b = breakdown_trace(tr.spans)
        assert_exact(b)
        assert b.total_ns == 10.0
        assert b.categories["host"] == 10.0


# ---------------------------------------------------------------------------
# property over real runs
# ---------------------------------------------------------------------------


class TestRealRunsExact:
    def _run_traced(self, experiment: str) -> list:
        try:
            configure(sample_every=1)
            spec = ExperimentSpec(experiment=experiment, sizes=(16, 1024),
                                  iterations=2)
            report = Runner().run(spec)
        finally:
            disable()
        assert report.span_dumps, "traced run produced no span dumps"
        breakdowns = []
        for dump in report.span_dumps:
            breakdowns.extend(breakdown_dump(load_dump(dump)))
        return breakdowns

    def test_fig7_every_trace_bit_exact(self):
        breakdowns = self._run_traced("fig7")
        assert breakdowns
        for b in breakdowns:
            assert_exact(b)

    def test_fig8_every_trace_bit_exact_with_itb(self):
        breakdowns = self._run_traced("fig8")
        assert breakdowns
        for b in breakdowns:
            assert_exact(b)
        # The ITB direction of fig8 must actually attribute buffer or
        # re-injection time somewhere.
        assert any(b.categories["itb_buffer"] > 0
                   or b.categories["reinject"] > 0 for b in breakdowns)

    def test_fault_campaign_with_retransmissions_bit_exact(self):
        """Cut every inter-switch cable under a reliable send: the
        delivered message's breakdown stays exact and attributes the
        dead time to ``retransmit``."""
        tracer = SpanTracer()
        cfg = NetworkConfig(
            firmware="itb", routing="itb", reliable=True,
            timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
        )
        net = build_network("fig6", config=cfg)
        net.fabric.tracer = tracer
        sw1, sw2 = net.roles["sw1"], net.roles["sw2"]
        links = sorted(
            link.link_id for link in net.topo.links
            if {link.node_a, link.node_b} == {sw1, sw2})
        plan = FaultPlan(events=tuple(
            FaultEvent(kind="link-down", target=link_id, at_ns=2_000.0,
                       repair_ns=500_000.0)
            for link_id in links))
        install_fault_plan(net, plan)
        a, b = net.gm("host1"), net.gm("host2")
        got = []

        def rx():
            while True:
                msg = yield b.receive()
                got.append(msg.tag)

        def tx():
            yield Timeout(100.0)
            a.send(b.host, 4096, tag=1)

        net.sim.process(rx(), name="rx")
        net.sim.process(tx(), name="tx")
        net.sim.run(until=60_000_000)
        assert got == [1]
        breakdowns = breakdown_dump(tracer.spans)
        assert breakdowns
        retried = [bd for bd in breakdowns if bd.n_attempts > 1]
        assert retried, "campaign produced no retransmissions"
        for bd in breakdowns:
            assert_exact(bd)
        assert any(bd.categories["retransmit"] > 0 for bd in retried)


# ---------------------------------------------------------------------------
# one packet at the firmware boundary: categories against the timing model
# ---------------------------------------------------------------------------


class TestFirmwareSends:
    """A single packet sent at the firmware boundary (no GM host) on
    the quiet fig6 testbed, decomposed and checked against the timing
    constants it is built from."""

    TIMINGS = Timings().with_overrides(host_jitter_sigma_ns=0.0)

    def _send(self, size, itb=False):
        cfg = NetworkConfig(firmware="itb", routing="updown",
                            timings=self.TIMINGS)
        net = build_network("fig6", config=cfg)
        route = fig6_paths(net.topo, net.roles).itb5 if itb else None
        tp, tracer = send_traced(net, net.roles["host1"],
                                 net.roles["host2"], size=size, route=route)
        assert not tp.dropped
        b = breakdown_trace(tracer.spans)
        assert_exact(b)
        return tp, tracer, b

    def test_categories_sum_to_delivery_latency(self):
        for size, itb in ((64, False), (512, False), (512, True),
                          (4096, True)):
            tp, _tracer, b = self._send(size, itb)
            assert b.total_ns == tp.t_deliver - tp.t_api_send
            assert float(b.exact_total()) == tp.t_deliver - tp.t_api_send

    def test_host_category_matches_constants(self):
        """On the plain path the host time is SDMA (DMA setup + PCI of
        payload and header) plus the Send machine."""
        t = self.TIMINGS
        _tp, _tracer, b = self._send(256)
        expected = (t.dma_setup_ns + t.pci_time(256 + 5)
                    + t.cycles(t.mcp_send_cycles))
        assert b.categories["host"] == pytest.approx(expected, rel=1e-12)
        assert b.categories["host"] == pytest.approx(1_903.75)

    def test_wire_dominates_large_messages(self):
        _tp, _tracer, b = self._send(4096)
        assert b.categories["wire"] > 0.5 * b.total_ns

    def test_itb_forward_spans_match_timings(self):
        """Detection plus re-injection programming at the in-transit
        host is the paper's per-ITB forward cost."""
        _tp, tracer, _b = self._send(512, itb=True)
        forward = sum(s.end - s.start for s in tracer.spans
                      if s.name in ("itb_detect", "itb_program"))
        assert forward == pytest.approx(self.TIMINGS.itb_forward_ns,
                                        rel=1e-12)
        assert forward == pytest.approx(1_302.9)

    def test_itb_forward_hidden_by_cut_through(self):
        """At 512 B the forward runs entirely under the segment-0 wire
        span (re-injection starts before reception ends), so it adds
        no exclusive ``reinject`` time."""
        _tp, _tracer, b = self._send(512, itb=True)
        assert b.categories["reinject"] == 0.0
        assert b.categories["wire"] > 0.0


# ---------------------------------------------------------------------------
# histogram aggregation
# ---------------------------------------------------------------------------


class TestObserveBreakdowns:
    def test_histograms_labeled_by_category(self):
        tr = SpanTracer()
        root = tr.begin("message", 0.0)
        att = tr.begin("attempt", 0.0, parent=root)
        tr.begin("wire", 100.0, parent=att).close(400.0)
        att.close(400.0)
        root.close(400.0)
        reg = MetricsRegistry()
        observe_breakdowns(breakdown_dump(tr.spans), reg)
        wire = reg.get("latency_breakdown_ns", labels={"category": "wire"})
        host = reg.get("latency_breakdown_ns", labels={"category": "host"})
        assert wire.count == 1 and wire.sum == 300.0
        assert host.count == 1 and host.sum == 100.0
        # Zero-duration categories are skipped, not observed as 0.
        assert "latency_breakdown_ns" in reg
        assert len(reg) == 2

    def test_fractions_survive_float_conversion(self):
        f = Fraction(1, 3)
        assert float(f + f + f) == 1.0

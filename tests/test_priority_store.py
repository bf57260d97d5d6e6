"""Tests for PriorityStore and the Send machine's dispatch priorities."""

from __future__ import annotations


from repro.mcp.firmware import McpEventKind
from repro.sim.engine import Timeout
from repro.sim.resources import PriorityStore


class TestPriorityStore:
    def test_lower_priority_number_first(self, sim):
        store = PriorityStore(sim)
        store.put("low", priority=5)
        store.put("high", priority=1)
        assert store.get().value == "high"
        assert store.get().value == "low"

    def test_fifo_within_priority(self, sim):
        store = PriorityStore(sim)
        for i in range(5):
            store.put(i, priority=3)
        assert [store.get().value for _ in range(5)] == list(range(5))

    def test_get_blocks_until_put(self, sim):
        store = PriorityStore(sim)
        seen = []

        def getter():
            item = yield store.get()
            seen.append((sim.now, item))

        sim.process(getter())
        sim.schedule(25, lambda: store.put("late"))
        sim.run()
        assert seen == [(25.0, "late")]

    def test_waiting_getter_receives_best_available(self, sim):
        """An item put while a getter waits goes straight to it —
        priority among *future* puts is irrelevant to an empty queue,
        but queued items must drain best-first."""
        store = PriorityStore(sim)
        store.put("b", priority=2)
        store.put("a", priority=1)
        order = []

        def getter():
            for _ in range(2):
                item = yield store.get()
                order.append(item)
                yield Timeout(1)

        sim.process(getter())
        sim.run()
        assert order == ["a", "b"]

    def test_try_get(self, sim):
        store = PriorityStore(sim)
        ok, item = store.try_get()
        assert not ok and item is None
        store.put("x", priority=0)
        ok, item = store.try_get()
        assert ok and item == "x"

    def test_peek_priority(self, sim):
        store = PriorityStore(sim)
        assert store.peek_priority() is None
        store.put("x", priority=7)
        store.put("y", priority=3)
        assert store.peek_priority() == 3
        assert len(store) == 2


class TestSendMachinePriorities:
    def test_itb_pending_outranks_queued_sends(self):
        """With both a deferred re-injection and normal sends pending,
        the Send machine serves the re-injection first (Figure 5's
        'ITB packet pending' is a high-priority event)."""
        from repro.core.builder import build_network
        from repro.core.config import NetworkConfig
        from repro.core.timings import Timings
        from repro.harness.paths import fig6_paths
        from repro.obs.tracing import SpanTracer
        from repro.sim.engine import Timeout as T

        cfg = NetworkConfig(
            firmware="itb", routing="updown",
            timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
        )
        net = build_network("fig6", config=cfg)
        tracer = net.fabric.tracer = SpanTracer()
        paths = fig6_paths(net.topo, net.roles)
        itb_host = net.roles["itb"]
        h1, h2 = net.roles["host1"], net.roles["host2"]

        done = net.sim.event("all")
        results = []

        def on_final(tp):
            results.append(tp)
            if len(results) == 3:
                done.succeed()

        def send(nic_host, size, route=None):
            ctx = tracer.open_message(net.sim.now, "scenario",
                                      src=nic_host, dst=h2, length=size)
            net.nics[nic_host].firmware.host_send(
                dst=h2, payload_len=size, gm={"last": True},
                on_delivered=on_final, route=route, trace=ctx)

        def scenario():
            # 1. Transit host starts a big send (occupies the engine).
            send(itb_host, 4096)
            # 2. While it drains, an in-transit packet arrives (will be
            #    deferred: ITB-pending) AND another own send queues up.
            yield T(12_000.0)
            send(h1, 64, route=paths.itb5)
            yield T(500.0)
            send(itb_host, 64)

        net.sim.process(scenario(), name="scenario")
        net.sim.run_until_event(done)
        assert net.nics[itb_host].stats.itb_pending == 1
        # Ordering proof from the spans: the re-injection's wire span
        # starts before the transit host's second own packet's.
        wires = sorted((s for s in tracer.spans if s.name == "wire"
                        and s.attrs["src"] == itb_host),
                       key=lambda s: s.start)
        kinds = [("reinject" if s.attrs["seg"] > 0 else "own")
                 for s in wires]
        assert kinds == ["own", "reinject", "own"]

    def test_mcp_event_priorities_ordered(self):
        assert McpEventKind.EARLY_RECV < McpEventKind.ITB_PENDING
        assert McpEventKind.ITB_PENDING < McpEventKind.RECV_DONE
        assert McpEventKind.RECV_DONE < McpEventKind.SEND_DONE
        assert McpEventKind.SEND_DONE < McpEventKind.SDMA_DONE

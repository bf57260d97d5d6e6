"""The MCP firmware: original GM and the ITB-modified variant.

The firmware object of a NIC implements the paper's four state
machines and event handler (Figures 4-5) as discrete-event processes:

* **SDMA** — host memory -> NIC SRAM for outgoing packets (uses the
  shared host-DMA engine),
* **Send** — dispatch, route-table lookup, header stamping, and
  programming of the wire-side send DMA; also serves deferred
  in-transit re-injections with priority (``ITB packet pending``),
* **Recv** — reception bookkeeping, packet type decode, buffer
  management; in the modified firmware it additionally owns the
  **Early-Recv Packet** event raised when the first four bytes of a
  packet have arrived, the in-transit detection, and the immediate
  re-injection path that bypasses one dispatch cycle,
* **RDMA** — NIC SRAM -> host memory for delivered packets.

The :class:`OriginalFirmware` and :class:`ItbFirmware` differ exactly
where the paper says they do:

========================  =======================  =========================
stage                     original                 ITB-modified
========================  =======================  =========================
recv path, every packet   type decode              type decode + ITB check
                                                   (+ ~125 ns, Figure 7)
ITB packet arrives        unknown type -> dropped  Early-Recv -> detect ->
                                                   re-inject (~1.3 us,
                                                   Figure 8)
========================  =======================  =========================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional

from repro.core.timings import Timings
from repro.mcp.packet_format import (
    TYPE_GM,
    PacketImage,
    encode_packet,
)
from repro.network.worm import Worm
from repro.nic.lanai import Nic
from repro.routing.routes import ItbRoute
from repro.sim.engine import Event, Simulator, Timeout

__all__ = [
    "Firmware",
    "ItbFirmware",
    "McpEventKind",
    "OriginalFirmware",
    "TransitPacket",
]


class McpEventKind:
    """Event priorities of the MCP event handler (highest first).

    The ITB firmware inserts EARLY_RECV as a new *high-priority* event
    (paper Section 4); the relative order below mirrors Figure 5.
    """

    EARLY_RECV = 0
    ITB_PENDING = 1
    RECV_DONE = 2
    SEND_DONE = 3
    SDMA_DONE = 4


@dataclass
class TransitPacket:
    """A packet travelling through the system, across all its segments."""

    pid: int
    src: int
    dst: int
    route: ItbRoute
    payload_len: int
    ptype: int = TYPE_GM
    payload: bytes = b""
    #: GM-level annotations (port, sequence number, ack flag, ...).
    gm: dict = field(default_factory=dict)
    #: Index of the route segment currently being traversed.
    seg_index: int = 0
    #: Current wire image (offset advances as headers are consumed).
    image: Optional[PacketImage] = None
    # -- timestamps (ns) -------------------------------------------------
    t_api_send: Optional[float] = None     # gm_send() called
    t_inject: Optional[float] = None       # first byte onto the wire
    t_complete_dst: Optional[float] = None  # last byte at final NIC
    t_deliver: Optional[float] = None      # handed to host software
    itb_times: list = field(default_factory=list)  # per-ITB forward times
    dropped: bool = False
    drop_reason: str = ""
    on_delivered: Optional[Callable[["TransitPacket"], None]] = None
    #: Span-trace context (:class:`repro.obs.tracing.PacketTrace`) for
    #: sampled packets, ``None`` otherwise.  Duck-typed so this module
    #: never imports the tracing package.
    trace: Optional[object] = None

    @property
    def final_segment(self) -> bool:
        return self.seg_index == len(self.route.segments) - 1

    @property
    def wire_bytes(self) -> int:
        return 0 if self.image is None else self.image.wire_length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TransitPacket {self.pid} {self.src}->{self.dst}"
            f" seg {self.seg_index}/{len(self.route.segments)}>"
        )


class Firmware:
    """Base class: the original GM MCP.

    Subclasses override the hooks marked below; everything else — the
    SDMA/Send/RDMA plumbing — is shared, because the paper's
    modification deliberately "keeps the main structure of the MCP".
    """

    name = "gm-original"
    supports_itb = False

    def __init__(self, nic: Nic) -> None:
        self.nic = nic
        self.sim: Simulator = nic.sim
        self.timings: Timings = nic.timings
        self._pid_counter = 0
        # Per-NIC process/event names, in the ``kind[instance]`` form
        # the profiler buckets by, built once rather than per packet.
        name = nic.name
        self._trace_component = f"mcp[{name}]"
        self._sdma_name = f"sdma[{name}]"
        self._recv_name = f"recv[{name}]"
        self._itbfwd_name = f"itbfwd[{name}]"
        self._drain_name = f"drain[{name}]"
        self._bufwait_name = f"bufwait[{name}]"
        # Uncontended firmware code times: they depend only on the
        # frozen timings; ``arbiter.scaled`` applies the contention of
        # the moment at each use.
        t = self.timings
        self._send_ns = t.cycles(t.mcp_send_cycles)
        self._itb_dispatch_ns = (t.cycles(t.itb_program_dma_cycles)
                                 + t.cycles(t.mcp_send_cycles) * 0.5)
        self._recv_ns = t.cycles(t.mcp_recv_cycles) + self._recv_extra_ns()
        self._early_recv_ns = t.cycles(t.itb_early_recv_cycles)
        self._program_dma_ns = t.cycles(t.itb_program_dma_cycles)
        # The Send machine's prioritized work queue: the event handler
        # always dispatches the highest-priority pending event (paper
        # Figure 5) — ITB-pending re-injections outrank normal sends.
        from repro.sim.resources import PriorityStore, Resource

        self._send_work = PriorityStore(nic.sim, name=f"sendq[{name}]")
        # The wire-side send DMA engine: one packet at a time, whether
        # driven by the Send machine or the Recv fast path.
        self._send_engine = Resource(nic.sim, capacity=1,
                                     name=f"senddma[{name}]")
        # Worms stalled waiting for a receive buffer (backpressure).
        self._recv_waiters: Deque[tuple[Worm, Event]] = deque()
        self.sim.process(self._send_machine(), name=f"send[{name}]")
        nic.attach_firmware(self)

    # ------------------------------------------------------------------
    # host -> wire (SDMA + Send machine)
    # ------------------------------------------------------------------

    def host_send(
        self,
        dst: int,
        payload_len: int,
        ptype: int = TYPE_GM,
        payload: bytes = b"",
        gm: Optional[dict] = None,
        on_delivered: Optional[Callable[[TransitPacket], None]] = None,
        route: Optional[ItbRoute] = None,
        trace: Optional[object] = None,
    ) -> TransitPacket:
        """Entry point from the host library: queue a send descriptor.

        The route is looked up in the NIC's SRAM route table unless an
        explicit one is supplied (hand-built test routes).
        """
        if route is None:
            if self.nic.route_table is None:
                raise RuntimeError(f"{self.nic.name}: no route table stamped")
            route = self.nic.route_table.lookup(dst)
        elif not isinstance(route, ItbRoute):
            # Accept a bare single-segment source route.
            route = ItbRoute((route,))
        self._pid_counter += 1
        tp = TransitPacket(
            pid=(self.nic.host << 20) | self._pid_counter,
            src=self.nic.host,
            dst=dst,
            route=route,
            payload_len=payload_len if not payload else len(payload),
            ptype=ptype,
            payload=payload,
            gm=gm or {},
            on_delivered=on_delivered,
            t_api_send=self.sim.now,
            trace=trace,
        )
        self.sim.process(self._sdma(tp), name=self._sdma_name)
        return tp

    def _sdma(self, tp: TransitPacket):
        """SDMA machine: move the message into NIC SRAM, then hand the
        descriptor to the Send machine."""
        t = self.timings
        dma = self.nic.host_dma
        arbiter = self.nic.arbiter
        tr = tp.trace
        if tr is not None:
            tr.begin("sdma", self.sim.now, component=self._trace_component)
        yield dma.request(owner=tp)
        payload = tp.payload if tp.payload else tp.payload_len
        tp.image = encode_packet(tp.route, payload, final_type=tp.ptype)
        arbiter.engine_start("host_dma")
        yield Timeout(t.dma_setup_ns + t.pci_time(len(tp.image.data)))
        arbiter.engine_stop("host_dma")
        dma.release(owner=tp)
        if tr is not None:
            now = self.sim.now
            tr.finish("sdma", now)
            tr.begin("send_queue", now, component=self._trace_component,
                     key="queue")
        self._send_work.put(("send", tp), priority=McpEventKind.SDMA_DONE)

    def _send_machine(self):
        """The Send state machine, fed by the prioritized event queue:
        pending ITB re-injections (``ITB packet pending``) outrank
        normal sends; ties dispatch FIFO."""
        arbiter = self.nic.arbiter
        while True:
            kind, tp = yield self._send_work.get()
            tr = tp.trace
            if tr is not None:
                now = self.sim.now
                tr.finish("queue", now)
                tr.begin("itb_dispatch" if kind == "itb" else "mcp_send",
                         now, component=self._trace_component, key="dispatch")
            if kind == "itb":
                # Deferred re-injection: one dispatch cycle was lost
                # (the paper's Recv fast path exists to avoid this).
                yield Timeout(arbiter.scaled(self._itb_dispatch_ns))
            else:
                # Dispatch + route stamp + program the send DMA.
                yield Timeout(arbiter.scaled(self._send_ns))
            yield from self._inject(tp)

    @property
    def _send_busy(self) -> bool:
        return not self._send_engine.free

    def _inject(self, tp: TransitPacket):
        """Run the wire-side send DMA: launch the worm for the current
        segment and hold the engine until the packet has drained.

        ``seg_index`` is captured at entry: downstream in-transit hosts
        mutate ``tp.seg_index`` while this engine is still draining.
        """
        seg_index = tp.seg_index
        yield self._send_engine.request(owner=tp)
        segment = tp.route.segments[seg_index]
        dest_fw = self._firmware_of(segment.dst)
        worm = Worm(
            self.sim, self.nic.fabric, segment, tp.image,
            observer=dest_fw, meta={"tp": tp},
        )
        if seg_index == 0:
            tp.t_inject = self.sim.now
            self.nic.stats.packets_sent += 1
            self.nic.stats.bytes_sent += tp.image.wire_length
        else:
            self.nic.stats.packets_forwarded += 1
        self.nic.emit("inject")
        done = Event(self.sim, name=self._drain_name)
        worm.meta["on_drained"] = done
        self.nic.arbiter.engine_start("send_dma")
        tr = tp.trace
        if tr is not None:
            # Dispatch (or ITB-program) work ends as the worm launches;
            # the wire span opened by the worm takes over from here.
            tr.finish("dispatch", self.sim.now)
        worm.launch()
        yield done
        self.nic.arbiter.engine_stop("send_dma")
        self._send_engine.release(owner=tp)
        if seg_index > 0:
            # Re-injection finished: free the in-transit buffer slot.
            self.nic.recv_buffers.release(tp)
            if tr is not None:
                tr.finish(f"itb_buffer{seg_index - 1}", self.sim.now)
            self.nic.emit("itb_buffer_release")
            self._admit_recv_waiter()

    def _firmware_of(self, host: int) -> "Firmware":
        fw = self.nic.fabric.meta["firmware_by_host"][host]
        return fw

    # ------------------------------------------------------------------
    # wire -> host (Recv machine + RDMA), WormObserver interface
    # ------------------------------------------------------------------

    def on_header(self, worm: Worm, t_now: float) -> Optional[Event]:
        """First bytes of a packet have arrived.

        The stock firmware just claims a receive buffer; when both
        buffers are busy the reception cannot be programmed and the
        packet stalls on the wire (backpressure), expressed by the
        returned gate event.
        """
        tp: TransitPacket = worm.meta["tp"]
        return self._claim_recv_buffer(worm, tp)

    def on_complete(self, worm: Worm, t_now: float) -> None:
        """Last byte arrived: decode the type, deliver or drop."""
        tp: TransitPacket = worm.meta["tp"]
        drained = worm.meta.get("on_drained")
        if drained is not None and not drained.triggered:
            drained.succeed()
        if tp.dropped:
            # Flushed at on_header (buffer-pool overflow): the wire
            # drained into the bit bucket.  Report final disposition.
            if tp.trace is not None:
                tp.trace.attempt.close(t_now, tp.drop_reason or "dropped")
            if tp.on_delivered is not None:
                tp.on_delivered(tp)
            return
        self.nic.stats.packets_received += 1
        self.nic.stats.bytes_received += worm.image.wire_length
        image = worm.image
        if image.is_itb():
            # The original MCP does not know the ITB packet type:
            # the packet is dropped (and counted) — a correctness
            # experiment in the tests, not a paper scenario.
            self.nic.stats.packets_dropped_unknown += 1
            tp.dropped = True
            tp.drop_reason = "unknown-type"
            self.nic.recv_buffers.release(tp)
            self._admit_recv_waiter()
            self.nic.emit("drop_unknown_type")
            if tp.trace is not None:
                tp.trace.attempt.close(t_now, "unknown-type")
            if tp.on_delivered is not None:
                tp.on_delivered(tp)
            return
        tp.image = image
        tp.t_complete_dst = t_now
        self.sim.process(self._recv_and_rdma(tp), name=self._recv_name)

    def _recv_and_rdma(self, tp: TransitPacket):
        """Recv machine processing, then RDMA into host memory."""
        t = self.timings
        arbiter = self.nic.arbiter
        tr = tp.trace
        if tr is not None:
            tr.begin("recv", self.sim.now, component=self._trace_component)
        yield Timeout(arbiter.scaled(self._recv_ns))
        dma = self.nic.host_dma
        yield dma.request(owner=tp)
        arbiter.engine_start("host_dma")
        yield Timeout(t.dma_setup_ns + t.pci_time(tp.wire_bytes))
        arbiter.engine_stop("host_dma")
        dma.release(owner=tp)
        self.nic.recv_buffers.release(tp)
        self._admit_recv_waiter()
        tp.t_deliver = self.sim.now
        if tr is not None:
            tr.finish("recv", tp.t_deliver)
            tr.attempt.close(tp.t_deliver)
        self.nic.emit("deliver")
        if self.nic.deliver_up is not None:
            self.nic.deliver_up(tp)
        if tp.on_delivered is not None:
            tp.on_delivered(tp)

    def _recv_extra_ns(self) -> float:
        """Hook: extra per-packet receive-path cost (Figure 7 delta)."""
        return 0.0

    # -- receive buffer management ----------------------------------------

    def _claim_recv_buffer(
        self, worm: Worm, tp: TransitPacket
    ) -> Optional[Event]:
        buffers = self.nic.recv_buffers
        size = worm.image.wire_length
        if buffers.try_accept(tp, size):
            return None
        if buffers.drops_when_full():
            # Buffer-pool overflow: flush the packet (GM retransmits).
            tp.dropped = True
            tp.drop_reason = "buffer-pool-flush"
            self.nic.stats.packets_flushed += 1
            self.nic.emit("flush")
            return None
        # Fixed buffers: stall the wire until a slot frees.
        gate = Event(self.sim, name=self._bufwait_name)
        self._recv_waiters.append((worm, gate))
        self.nic.emit("recv_blocked")
        stall_start = self.sim.now
        tr = tp.trace
        wait_span = None if tr is None else tr.begin(
            "recv_wait", stall_start, component=self._trace_component)

        def _account(_ev: Event, start=stall_start) -> None:
            self.nic.stats.recv_blocked_ns += self.sim.now - start
            if wait_span is not None:
                wait_span.close(self.sim.now)

        gate.add_callback(_account)
        return gate

    def _admit_recv_waiter(self) -> None:
        while self._recv_waiters and self.nic.recv_buffers.can_accept():
            worm, gate = self._recv_waiters.popleft()
            tp = worm.meta["tp"]
            if tp.dropped or worm._killed:
                # The stalled packet was lost while it waited (fault
                # injection killed the worm): accepting it now would
                # leak the buffer slot.  Skip to the next waiter.
                continue
            self.nic.recv_buffers.try_accept(tp, worm.image.wire_length)
            gate.succeed()


class OriginalFirmware(Firmware):
    """Alias for clarity at call sites."""

    name = "gm-original"


class ItbFirmware(Firmware):
    """The ITB-modified MCP (paper Section 4).

    Differences from :class:`OriginalFirmware`:

    * every received packet pays the new type-check instructions
      (:attr:`Timings.itb_check_cycles` — the ~125 ns of Figure 7);
    * the **Early-Recv Packet** event fires once the first four bytes
      are in: if they announce an in-transit packet, the Recv machine
      either programs the send DMA immediately (send engine free —
      saving a dispatch cycle) or raises ``ITB packet pending`` for
      the Send machine to serve with priority;
    * re-injection is cut-through: it starts while the tail of the
      packet is still being received.
    """

    name = "gm-itb"
    supports_itb = True

    def _recv_extra_ns(self) -> float:
        return self.timings.cycles(self.timings.itb_check_cycles)

    def on_header(self, worm: Worm, t_now: float) -> Optional[Event]:
        """Early-Recv: divert in-transit packets to the forward path."""
        tp: TransitPacket = worm.meta["tp"]
        image = worm.image
        if image.is_itb() and not tp.final_segment:
            return self._early_recv_itb(worm, tp)
        return super().on_header(worm, t_now)

    def on_complete(self, worm: Worm, t_now: float) -> None:
        """In-transit packets finish reception here: bookkeeping only.

        The forwarding work was already started by the Early-Recv
        handler (cut-through); the buffer slot is released when the
        re-injection drains, not now.
        """
        if worm.image.is_itb() and not worm.meta["tp"].dropped:
            drained = worm.meta.get("on_drained")
            if drained is not None and not drained.triggered:
                drained.succeed()
            self.nic.stats.packets_received += 1
            self.nic.stats.bytes_received += worm.image.wire_length
            self.nic.emit("itb_recv_complete")
            return
        super().on_complete(worm, t_now)

    def _early_recv_itb(self, worm: Worm, tp: TransitPacket) -> Optional[Event]:
        """Early-Recv handler for an in-transit packet."""
        gate = self._claim_recv_buffer(worm, tp)
        if tp.dropped:
            return gate
        tr = tp.trace
        if tr is not None:
            # Buffer residency: claim here, released when this host's
            # re-injection drains (cut-through — it overlaps the next
            # segment's wire span).
            tr.begin("itb_buffer", self.sim.now,
                     component=self._trace_component,
                     key=f"itb_buffer{tp.seg_index}", seg=tp.seg_index)
        self.nic.emit("early_recv")
        self.sim.process(self._forward(worm, tp), name=self._itbfwd_name)
        return gate

    def _forward(self, worm: Worm, tp: TransitPacket):
        """Detect, strip the stage header, and re-inject."""
        arbiter = self.nic.arbiter
        t_start = self.sim.now
        tr = tp.trace
        if tr is not None:
            tr.begin("itb_detect", t_start, component=self._trace_component)
        # Event-handler dispatch + in-transit detection code.
        yield Timeout(arbiter.scaled(self._early_recv_ns))
        if tp.dropped:
            # Killed (fault) while the detection code ran: the loss
            # path already freed this host's buffer slot — do not
            # re-inject or take ownership of the release.
            if tr is not None:
                tr.finish("itb_detect", self.sim.now)
            return
        _remaining_len, image2 = worm.image.strip_itb_stage()
        tp.image = image2
        tp.seg_index += 1
        tp.itb_times.append(t_start)
        if tr is not None:
            tr.finish("itb_detect", self.sim.now)
        if not self._send_busy and len(self._send_work) == 0:
            # Fast path: the Recv machine programs the send DMA itself,
            # avoiding one dispatching cycle (paper Figure 4, dashed).
            self.nic.stats.itb_immediate += 1
            if tr is not None:
                tr.begin("itb_program", self.sim.now,
                         component=self._trace_component, key="dispatch")
            yield Timeout(arbiter.scaled(self._program_dma_ns))
            self.nic.emit("reinject_immediate")
            yield from self._inject(tp)
        else:
            # ITB packet pending: served by the Send machine with
            # priority as soon as it frees up.
            self.nic.stats.itb_pending += 1
            self.nic.emit("reinject_pending")
            if tr is not None:
                tr.begin("itb_queue", self.sim.now,
                         component=self._trace_component, key="queue")
            self._send_work.put(("itb", tp),
                                priority=McpEventKind.ITB_PENDING)

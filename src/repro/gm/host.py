"""GmHost: the per-host GM API with reliable ordered delivery.

Models the host-software half of GM:

* ``send()`` — segments a message at the GM MTU, charges host-side
  software time (with seeded Gaussian jitter standing in for P-III
  scheduler/cache noise), and pushes packets through the NIC firmware.
* ``receive()`` — event-based receive from the in-order delivery queue.
* Reliability — per-destination go-back-N: sequence numbers on data
  packets, cumulative acks (explicit packets plus a piggybacked ack
  field on reverse data traffic), NACK-triggered fast retransmit, a
  bounded send window, and a per-connection retransmission timer with
  exponential backoff.  A packet that exhausts its retransmission
  budget fails the whole connection *gracefully*: every in-flight
  send's completion event fails with :class:`GmSendError`, a reset
  packet resynchronizes the receiver, and the simulation keeps
  running.  This is what recovers packets flushed by a full in-transit
  buffer pool (paper Section 4's "GM software has mechanisms to
  retransmit missing packets") and what degrades sends over a
  permanently faulted path.

``docs/RELIABILITY.md`` documents the protocol state machine and the
timeout/backoff constants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

import numpy as np

from repro.mcp.firmware import TransitPacket
from repro.mcp.packet_format import TYPE_GM
from repro.nic.lanai import Nic
from repro.routing.routes import ItbRoute, RouteError
from repro.sim.engine import Event, Simulator, Timeout
from repro.sim.resources import Store

__all__ = ["GmHost", "GmMessage", "GmSendError"]

#: GM maximum payload per packet (GM-1.x used 4 KB pages).
GM_MTU = 4096


class GmSendError(RuntimeError):
    """Raised when a message exhausts its retransmission budget."""


@dataclass
class GmMessage:
    """One application-level message as seen by ``receive()``."""

    src: int
    dst: int
    length: int
    tag: int = 0
    t_send_api: float = 0.0
    t_recv_api: float = 0.0
    n_packets: int = 1

    @property
    def latency_ns(self) -> float:
        return self.t_recv_api - self.t_send_api


@dataclass
class _Connection:
    """Per-(local, remote) reliability state."""

    next_seq: int = 0          # next sequence number to assign
    expected_seq: int = 0      # next in-order sequence expected (recv side)
    unacked: dict = field(default_factory=dict)  # seq -> _SendState
    backoff_exp: int = 0       # consecutive timeouts without ack progress
    timer_armed: bool = False
    timer_gen: int = 0         # bumping invalidates scheduled checks
    window_waiters: Deque[Event] = field(default_factory=deque)
    last_nack_seq: int = -1    # dedupe fast retransmits per hole


@dataclass
class _SendState:
    seq: int
    length: int
    tag: int
    route: Optional[ItbRoute]
    t_first_send: float
    retries: int = 0
    acked: bool = False
    msg_id: int = 0
    last_packet: bool = False
    #: Message root span (sampled traces only) and this packet's first
    #: attempt span — retransmissions parent under the first attempt.
    trace_root: Optional[object] = None
    trace0: Optional[object] = None


@dataclass
class _InFlightMessage:
    msg_id: int
    dst: int
    length: int
    tag: int
    n_packets: int
    packets_acked: int = 0
    done: Optional[Event] = None
    trace_root: Optional[object] = None


class GmHost:
    """Host-side GM endpoint bound to one NIC.

    Parameters
    ----------
    sim, nic:
        Simulation context; ``nic.deliver_up`` is claimed by this host.
    seed:
        Seeds the host-noise RNG (deterministic per host).
    reliable:
        Enable acks + retransmission.  Latency tests may disable it to
        match ``gm_allsize``'s measurement of the data path only; it
        must be on for buffer-pool flush and fault experiments.
    ack_payload:
        Wire payload bytes of an ack packet (control packets are tiny).
    resend_timeout_ns / max_retries:
        Go-back-N base timeout and per-packet retransmission budget.
    backoff_factor / max_backoff_ns:
        The retransmission timeout grows by ``backoff_factor`` per
        consecutive timeout without ack progress, capped at
        ``max_backoff_ns``; any cumulative-ack progress resets it.
    window:
        Maximum unacked packets per connection; ``send()`` processes
        stall (simulated time) when the window is full.
    nack_enabled:
        Receivers nack the first missing sequence on a gap, letting
        the sender fast-retransmit without waiting out the timer.
    """

    def __init__(
        self,
        sim: Simulator,
        nic: Nic,
        seed: int = 0,
        reliable: bool = True,
        ack_payload: int = 8,
        resend_timeout_ns: float = 1_000_000.0,
        max_retries: int = 64,
        backoff_factor: float = 2.0,
        max_backoff_ns: float = 16_000_000.0,
        window: int = 64,
        nack_enabled: bool = True,
    ) -> None:
        self.sim = sim
        self.nic = nic
        self.host = nic.host
        self.name = nic.name
        self.timings = nic.timings
        self.reliable = reliable
        self.ack_payload = ack_payload
        self.resend_timeout_ns = resend_timeout_ns
        self.max_retries = max_retries
        self.backoff_factor = backoff_factor
        self.max_backoff_ns = max_backoff_ns
        self.window = window
        self.nack_enabled = nack_enabled
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(nic.host,))
        )
        self._recv_queue: Store = Store(sim, name=f"gmrecv[{self.name}]")
        # Per-host process/event names, in the ``kind[instance]`` form
        # the profiler buckets by, built once rather than per message.
        self._component = f"gm[{self.name}]"
        self._send_proc_name = f"gmsend[{self.name}]"
        self._recv_proc_name = f"gmrecv[{self.name}]"
        self._senddone_name = f"senddone[{self.name}]"
        self._window_name = f"window[{self.name}]"
        self._connections: dict[int, _Connection] = {}
        self._in_flight: dict[int, _InFlightMessage] = {}
        self._msg_counter = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.messages_failed = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.nacks_sent = 0
        self.nacks_received = 0
        self.send_errors = 0
        self.route_failures = 0
        nic.deliver_up = self._on_nic_deliver

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send(
        self,
        dst: int,
        length: int,
        tag: int = 0,
        route: Optional[ItbRoute] = None,
    ) -> Event:
        """gm_send(): returns an event that fires at *send completion*.

        With reliability on, completion means every packet of the
        message has been acked — or the event *fails* with
        :class:`GmSendError` when the retransmission budget runs out.
        With it off, completion fires when the last packet has been
        handed to the NIC.
        """
        if length < 0:
            raise ValueError("negative message length")
        self._msg_counter += 1
        msg_id = (self.host << 24) | self._msg_counter
        n_packets = max(1, -(-length // GM_MTU))
        done = Event(self.sim, name=self._senddone_name)
        tracer = self.nic.fabric.tracer
        root = None
        if tracer is not None and tracer.sample():
            root = tracer.begin(
                "message", self.sim.now, component=self._component,
                src=self.host, dst=dst, length=length, tag=tag,
                msg_id=msg_id)
        self._in_flight[msg_id] = _InFlightMessage(
            msg_id=msg_id, dst=dst, length=length, tag=tag,
            n_packets=n_packets, done=done, trace_root=root,
        )
        self.sim.process(
            self._send_proc(msg_id, dst, length, tag, route, done, root),
            name=self._send_proc_name,
        )
        return done

    def _host_noise(self) -> float:
        sigma = self.timings.host_jitter_sigma_ns
        if sigma <= 0:
            return 0.0
        return float(abs(self._rng.normal(0.0, sigma)))

    def _send_proc(self, msg_id, dst, length, tag, route, done: Event,
                   root=None):
        t = self.timings
        conn = self._connections.setdefault(dst, _Connection())
        remaining = length
        n_packets = max(1, -(-length // GM_MTU))
        for i in range(n_packets):
            chunk = min(GM_MTU, remaining) if length > 0 else 0
            remaining -= chunk
            # Host-side gm_send work per packet (descriptor, pinning).
            hs = None
            if root is not None:
                hs = root.tracer.begin(
                    "host_send", self.sim.now, parent=root,
                    component=self._component, pkt=i)
            yield Timeout(t.host_send_sw_ns + self._host_noise())
            if hs is not None:
                hs.close(self.sim.now)
            if self.reliable and msg_id not in self._in_flight:
                return  # connection failed under us (budget exhausted)
            # Send-window backpressure: gm_send blocks while the
            # go-back-N window is full of unacked packets.
            while self.reliable and len(conn.unacked) >= self.window:
                gate = Event(self.sim, name=self._window_name)
                conn.window_waiters.append(gate)
                ws = None
                if root is not None:
                    ws = root.tracer.begin(
                        "window_wait", self.sim.now, parent=root,
                        component=self._component, pkt=i)
                ok = yield gate
                if ws is not None:
                    ws.close(self.sim.now)
                if ok is False or msg_id not in self._in_flight:
                    return  # woken by connection failure
            seq = conn.next_seq
            conn.next_seq += 1
            state = _SendState(
                seq=seq, length=chunk, tag=tag, route=route,
                t_first_send=self.sim.now, msg_id=msg_id,
                last_packet=(i == n_packets - 1),
                trace_root=root,
            )
            if self.reliable:
                conn.unacked[seq] = state
                self._push_packet(dst, state)
                self._arm_timer(dst, conn)
            else:
                self._push_packet(dst, state)
        self.messages_sent += 1
        if not self.reliable and not done.triggered:
            done.succeed()

    def _push_packet(self, dst: int, state: _SendState) -> None:
        gm = {
            "kind": "data",
            "seq": state.seq,
            "tag": state.tag,
            "msg_id": state.msg_id,
            "msg_len": self._in_flight[state.msg_id].length
            if state.msg_id in self._in_flight else state.length,
            "last": state.last_packet,
            "reliable": self.reliable,
        }
        if self.reliable:
            # Piggybacked cumulative ack for the reverse direction.
            gm["ack"] = self._connections[dst].expected_seq - 1
        trace_ctx = None
        root = state.trace_root
        if root is not None:
            tracer = root.tracer
            attempt = tracer.begin(
                "attempt", self.sim.now,
                parent=state.trace0 if state.trace0 is not None else root,
                component=self._component,
                seq=state.seq, retry=state.retries, last=state.last_packet)
            if state.trace0 is None:
                state.trace0 = attempt
            trace_ctx = tracer.packet(root, attempt)
        try:
            self.nic.firmware.host_send(
                dst=dst,
                payload_len=state.length,
                ptype=TYPE_GM,
                gm=gm,
                route=state.route,
                trace=trace_ctx,
            )
        except RouteError:
            if trace_ctx is not None:
                trace_ctx.attempt.close(self.sim.now, "no-route")
            if not self.reliable:
                raise
            # No route (the mapper dropped an unreachable destination
            # after a fault): the packet never reaches the wire.  The
            # retransmission timer keeps retrying; the budget converts
            # a permanent hole into a graceful GmSendError.
            self.route_failures += 1

    # -- retransmission timer -------------------------------------------

    def _current_timeout_ns(self, conn: _Connection) -> float:
        t = self.resend_timeout_ns * (self.backoff_factor ** conn.backoff_exp)
        return min(t, self.max_backoff_ns)

    def _arm_timer(self, dst: int, conn: _Connection) -> None:
        if conn.timer_armed or not conn.unacked:
            return
        conn.timer_armed = True
        gen = conn.timer_gen
        self.sim.schedule(self._current_timeout_ns(conn),
                          lambda: self._timer_fired(dst, gen))

    def _timer_fired(self, dst: int, gen: int) -> None:
        conn = self._connections.get(dst)
        if conn is None or gen != conn.timer_gen:
            return  # superseded by ack progress or connection failure
        conn.timer_armed = False
        if not conn.unacked:
            return
        oldest = min(conn.unacked)
        if conn.unacked[oldest].retries >= self.max_retries:
            self._fail_connection(
                dst, conn,
                f"seq {oldest} to {dst} exceeded {self.max_retries} retries")
            return
        self.timeouts += 1
        conn.backoff_exp += 1
        # Go-back-N: retransmit every unacked packet, in order.
        for seq in sorted(conn.unacked):
            state = conn.unacked[seq]
            state.retries += 1
            self.retransmissions += 1
            self._push_packet(dst, state)
        self._arm_timer(dst, conn)

    def _fail_connection(self, dst: int, conn: _Connection,
                         reason: str) -> None:
        """Retransmission budget exhausted: degrade gracefully.

        Every in-flight message to ``dst`` fails its completion event
        with :class:`GmSendError`; the send state is purged, window
        waiters are released, and a reset packet tells the receiver to
        resynchronize its expected sequence so *later* messages start
        clean.  The simulation keeps running.
        """
        self.send_errors += 1
        err = GmSendError(f"{self.name}: {reason}")
        conn.unacked.clear()
        conn.timer_gen += 1
        conn.timer_armed = False
        conn.backoff_exp = 0
        conn.last_nack_seq = -1
        for msg_id, flight in list(self._in_flight.items()):
            if flight.dst != dst:
                continue
            del self._in_flight[msg_id]
            self.messages_failed += 1
            if flight.trace_root is not None:
                flight.trace_root.close(self.sim.now, "failed")
            if flight.done is not None and not flight.done.triggered:
                flight.done.fail(err)
        self._wake_window_waiters(conn, ok=False)
        self._send_control(dst, {"kind": "reset",
                                 "reset_seq": conn.next_seq})

    def _wake_window_waiters(self, conn: _Connection, ok: bool) -> None:
        while conn.window_waiters:
            gate = conn.window_waiters.popleft()
            if not gate.triggered:
                gate.succeed(ok)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def receive(self) -> Event:
        """gm_receive(): event yielding the next :class:`GmMessage`."""
        return self._recv_queue.get()

    def _on_nic_deliver(self, tp: TransitPacket) -> None:
        """Called by the NIC firmware after RDMA completes."""
        kind = tp.gm.get("kind", "data")
        if kind == "ack":
            self._handle_ack(tp)
            return
        if kind == "nack":
            self._handle_nack(tp)
            return
        if kind == "reset":
            conn = self._connections.setdefault(tp.src, _Connection())
            conn.expected_seq = tp.gm.get("reset_seq", conn.expected_seq)
            return
        self.sim.process(self._recv_proc(tp), name=self._recv_proc_name)

    def _recv_proc(self, tp: TransitPacket):
        t = self.timings
        ctx = tp.trace
        gr = None
        if ctx is not None and ctx.root is not None:
            gr = ctx.tracer.begin(
                "gm_recv", self.sim.now, parent=ctx.root,
                component=self._component)
        # Host-side receive work (event queue poll, token return).
        yield Timeout(t.host_recv_sw_ns + self._host_noise())
        if gr is not None:
            gr.close(self.sim.now)
        if tp.gm.get("kind", "data") != "data":
            # Control traffic (mapper scouts, diagnostics) is consumed
            # by the GM layer, never surfaced to the application.
            return
        conn = self._connections.setdefault(tp.src, _Connection())
        seq = tp.gm.get("seq", conn.expected_seq)
        reliable = tp.gm.get("reliable", False)
        if reliable and "ack" in tp.gm:
            # Piggybacked cumulative ack for our sends toward tp.src.
            self._process_ack(tp.src, tp.gm["ack"])
        if reliable:
            if seq != conn.expected_seq:
                # Out-of-order: go-back-N receivers drop it.  A gap
                # (seq ran ahead) nacks the first missing sequence for
                # fast retransmit; either way re-ack the last good one.
                if seq > conn.expected_seq and self.nack_enabled:
                    self.nacks_sent += 1
                    self._send_control(
                        tp.src,
                        {"kind": "nack", "nack_seq": conn.expected_seq},
                        parent=ctx.root if ctx is not None else None)
                self._send_ack(tp.src, conn.expected_seq - 1,
                               parent=ctx.root if ctx is not None else None)
                return
            conn.expected_seq += 1
            if ctx is not None:
                ctx.attempt.attrs["accepted"] = True
            self._send_ack(tp.src, seq,
                           parent=ctx.root if ctx is not None else None)
        if tp.gm.get("last", True):
            msg = GmMessage(
                src=tp.src,
                dst=self.host,
                length=tp.gm.get("msg_len", tp.payload_len),
                tag=tp.gm.get("tag", 0),
                t_send_api=tp.t_api_send or 0.0,
                t_recv_api=self.sim.now,
                n_packets=1,
            )
            self.messages_received += 1
            self._recv_queue.put(msg)
            if ctx is not None and ctx.root is not None:
                # GM-level delivery of the last packet: the message's
                # end-to-end latency ends here.  The ack packet's spans
                # may extend past this close (t_acked lands in attrs).
                ctx.root.close(self.sim.now)

    def _send_ack(self, dst: int, seq: int, parent=None) -> None:
        self._send_control(dst, {"kind": "ack", "ack_seq": seq},
                           parent=parent)

    def _send_control(self, dst: int, gm: dict, parent=None) -> None:
        trace_ctx = None
        if parent is not None:
            tracer = parent.tracer
            span = tracer.begin(
                gm.get("kind", "ctl"), self.sim.now, parent=parent,
                component=self._component)
            trace_ctx = tracer.packet(None, span)
        try:
            self.nic.firmware.host_send(
                dst=dst, payload_len=self.ack_payload, ptype=TYPE_GM, gm=gm,
                trace=trace_ctx,
            )
        except RouteError:
            if trace_ctx is not None:
                trace_ctx.attempt.close(self.sim.now, "no-route")
            self.route_failures += 1  # best-effort control packet

    def _handle_ack(self, tp: TransitPacket) -> None:
        self._process_ack(tp.src, tp.gm.get("ack_seq", -1))

    def _handle_nack(self, tp: TransitPacket) -> None:
        """Fast retransmit: the receiver is missing ``nack_seq``."""
        self.nacks_received += 1
        want = tp.gm.get("nack_seq", -1)
        # Everything below the hole is implicitly acked.
        self._process_ack(tp.src, want - 1)
        conn = self._connections.setdefault(tp.src, _Connection())
        if want in conn.unacked and conn.last_nack_seq != want:
            conn.last_nack_seq = want
            for seq in sorted(conn.unacked):
                self.retransmissions += 1
                self._push_packet(tp.src, conn.unacked[seq])

    def _process_ack(self, src: int, ack_seq: int) -> None:
        conn = self._connections.setdefault(src, _Connection())
        progressed = False
        # Cumulative ack: everything <= ack_seq is confirmed.
        for seq in sorted(conn.unacked):
            if seq > ack_seq:
                break
            state = conn.unacked.pop(seq)
            state.acked = True
            progressed = True
            flight = self._in_flight.get(state.msg_id)
            if flight is not None:
                flight.packets_acked += 1
                if (flight.packets_acked >= flight.n_packets
                        and flight.done is not None
                        and not flight.done.triggered):
                    flight.done.succeed()
                    if flight.trace_root is not None:
                        flight.trace_root.attrs["t_acked"] = self.sim.now
                    del self._in_flight[state.msg_id]
        if progressed:
            # Ack progress resets the backoff and restarts the timer
            # for whatever is still outstanding.
            conn.backoff_exp = 0
            conn.timer_gen += 1
            conn.timer_armed = False
            self._arm_timer(src, conn)
            self._wake_window_waiters(conn, ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GmHost {self.name} sent={self.messages_sent}>"

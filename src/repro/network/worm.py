"""Wormhole packet progression ("worm") through the fabric.

One :class:`Worm` carries one packet image along one source-route
segment.  The header advances hop by hop, acquiring its assigned
*lane* of the next directed channel before moving (FIFO arbitration
at switch output ports, per lane); the fall-through latency of each
switch depends on the input/output port kinds.  Lanes are held until
the tail drains at the destination — the behaviour of Myrinet's
Stop&Go flow control, whose slack buffers are far smaller than a
packet, so a blocked packet effectively holds its whole path.  A worm
therefore always holds one contiguous window of its route, a prefix
of its flight plan's channels.  On the default single-lane fabric the
lane assignment is identically zero and "lane" reads as "channel";
with virtual-channel lanes configured the fabric's lane policy picks
one lane per channel at launch, fixed for the flight.

The destination NIC is notified twice:

* ``on_header(worm, t)`` — when the first :attr:`early_recv_bytes`
  bytes have arrived (this is what triggers the ITB firmware's
  Early-Recv event), and
* ``on_complete(worm, t)`` — when the last byte has arrived.

Cut-through re-injection at an in-transit host is expressed by
starting the next segment's worm before ``on_complete`` fires; the
pipeline constraint (a byte cannot be re-sent before it arrived) is
honoured because both links run at the same byte rate and the
re-injection starts strictly after reception started.

Express lane
------------
When the whole route is provably uncontended at injection — every
assigned lane free with an empty queue, and no other in-flight worm's
lane assignment intersecting it (the fabric's lane-claim index) — the worm
skips the hop-by-hop generator entirely: the traversal clock is
replayed in closed form (the exact float-addition sequence the stepped
path performs) and just two calendar entries are scheduled, header
arrival and completion.  The channels are then held only *virtually*;
every later launch first interrupts intersecting express flights
(materialising their holds, and demoting any not-yet-acquired suffix
to the stepped lane from its first immature channel) before it can
observe the channels, so no contender can tell the difference.  A
fallback launch is the same stepped lane entered at channel 0.  See
the "Express worm flight" section of ``docs/ENGINE_FASTPATH.md`` for
the invariants.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.core.timings import Timings
from repro.mcp.packet_format import PacketImage
from repro.network.fabric import Channel, Fabric, FlightPlan
from repro.routing.routes import SourceRoute
from repro.sim.engine import Interrupt, Simulator, Timeout

__all__ = ["Worm", "WormObserver"]


class _LinkDown(Exception):
    """Internal: a worm's head reached a channel whose cable is down.

    The packet is lost on the wire (the switch output port is dead);
    the worm aborts, releases everything it holds, and reports the
    loss through ``fabric.on_worm_lost``.
    """

    def __init__(self, channel: Channel) -> None:
        super().__init__(channel)
        self.channel = channel

#: Tolerance for accumulated float rounding in head-arrival schedules.
#: ``head_at_input`` is built by summing hop latencies while ``sim.now``
#: advances through the same quantities in a different association
#: order, so their difference can go epsilon-negative on long routes.
TIME_EPS_NS = 1e-6


def _forward_delay(target_ns: float, now_ns: float) -> float:
    """``target_ns - now_ns`` clamped against float rounding.

    Deltas in ``(-TIME_EPS_NS, 0)`` are rounding noise and clamp to
    zero; anything more negative is a real scheduling bug and raises.
    """
    delta = target_ns - now_ns
    if delta >= 0.0:
        return delta
    if delta > -TIME_EPS_NS:
        return 0.0
    raise AssertionError(
        f"worm scheduled into the past: target {target_ns} is"
        f" {-delta} ns before now {now_ns}"
    )


class WormObserver(Protocol):
    """Destination-side hooks (implemented by the NIC firmware).

    ``on_header`` may return an event: the worm then stalls on the
    wire (holding its channels) until it triggers — receive-buffer
    backpressure.
    """

    def on_header(self, worm: "Worm", t: float) -> Optional[object]:
        """First bytes arrived; may return a gate event to stall."""
        ...

    def on_complete(self, worm: "Worm", t: float) -> None:
        """Last byte arrived; channels already released."""
        ...


class Worm:
    """One packet traversing one route segment.

    Parameters
    ----------
    sim, fabric, timings:
        Simulation context.
    segment:
        The source-route segment to follow (src may be a host NIC or an
        in-transit host re-injecting).
    image:
        Packet bytes *as injected for this segment* (route bytes for
        this segment leading).
    observer:
        Destination NIC hooks.
    meta:
        Free-form dict propagated across segments (packet id, timestamps).
    """

    __slots__ = (
        "sim", "fabric", "timings", "segment", "image", "observer", "meta",
        "worm_id", "inject_time", "header_time", "complete_time",
        "blocked_ns", "_held", "_plan", "_lanes", "_lane_keys", "_claimed",
        "_express_token", "_express_live",
        "_acq", "_image_out", "_early", "_remaining",
        "_killed", "_active_proc", "_span", "_hop_times",
    )

    _next_worm_id = 0

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        segment: SourceRoute,
        image: PacketImage,
        observer: WormObserver,
        meta: Optional[dict] = None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.timings: Timings = fabric.timings
        self.segment = segment
        self.image = image
        self.observer = observer
        self.meta = meta if meta is not None else {}
        Worm._next_worm_id += 1
        self.worm_id = Worm._next_worm_id
        # Filled in while running:
        self.inject_time: Optional[float] = None
        self.header_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        self.blocked_ns: float = 0.0
        #: Lane resources held: always those of ``channels[:len(_held)]``
        #: of the flight plan, in route order.
        self._held: list = []
        self._plan: Optional[FlightPlan] = None
        #: Per-channel lane assignment and lane keys, chosen by the
        #: fabric's lane policy at launch and fixed for the flight.
        self._lanes: tuple[int, ...] = ()
        self._lane_keys: tuple = ()
        self._claimed = False
        # Express-lane state.  ``_express_live`` marks a flight whose
        # channels are held only virtually; bumping ``_express_token``
        # cancels any scheduled express callbacks (they capture the
        # token at schedule time and no-op on mismatch).
        self._express_token = 0
        self._express_live = False
        self._acq: list[float] = []
        self._image_out: Optional[PacketImage] = None
        self._early = 0.0
        self._remaining = 0.0
        self._killed = False
        #: The process currently driving this worm (the launch process,
        #: then a gated or demoted tail if one takes over).  ``kill()``
        #: interrupts it; a fully-virtual express flight has none.
        self._active_proc = None
        # Span tracing: the open "wire" span and the per-channel
        # (request, acquire) times feeding its hop children.  Both stay
        # None unless ``fabric.tracer`` is set at launch.
        self._span = None
        self._hop_times: Optional[list[tuple[float, float]]] = None

    # ------------------------------------------------------------------

    def launch(self) -> None:
        """Start the worm process at the current simulation time."""
        self._active_proc = self.sim.process(
            self._drive(self._flight()), name=f"worm{self.worm_id}")

    def kill(self) -> None:
        """Tear down an in-flight worm (fault injection).

        Cancels any scheduled express callbacks, interrupts whichever
        process is driving the worm, and releases every channel hold,
        queued request, and claim.  Idempotent; a no-op once the worm
        has completed.
        """
        if self._killed or self.complete_time is not None:
            return
        self._killed = True
        self._express_token += 1  # cancels scheduled express callbacks
        self._express_live = False
        proc = self._active_proc
        if proc is not None and proc.alive:
            proc.interrupt("fault")
        else:
            # No generator to unwind (virtual or materialized express
            # flight): settle the channel state synchronously.
            self._abort()

    def _drive(self, stage):
        """Body of every process that drives the worm (the launch, a
        demoted continuation, a gated tail): a fault interrupt tears
        the worm down, and a head lost at a down cable also reports the
        packet lost."""
        try:
            yield from stage
        except Interrupt:
            self._abort()
        except _LinkDown:
            self._abort()
            hook = self.fabric.on_worm_lost
            if hook is not None:
                hook(self)

    def _flight(self):
        sim, fabric = self.sim, self.fabric
        t = self.timings
        seg = self.segment
        self.inject_time = sim.now

        plan = fabric.flight_plan(seg)
        self._plan = plan
        lanes = fabric.select_lanes(plan)
        self._lanes = lanes
        self._lane_keys = plan.lane_keys(lanes)
        # One route decode per segment, shared by both paths: the
        # switches' route-byte stripping validated and applied in a
        # single cursor advance.
        self._image_out = self.image.consume_route_bytes(seg.ports)
        wire_len = self._image_out.wire_length
        self._early = t.wire_time(min(t.early_recv_bytes, wire_len))
        self._remaining = t.wire_time(wire_len) - self._early

        tracer = fabric.tracer
        if tracer is not None:
            self._trace_begin(tracer)

        # Interrupt intersecting express flights *before* looking at
        # channel state (their holds must be observable from here on),
        # then claim our own lane assignment.
        keys = self._lane_keys
        unclaimed = fabric.claim_horizon(keys, sim.now) == len(keys)
        fabric.register_claims(self, keys)
        self._claimed = True

        if (unclaimed and fabric.express_enabled and not plan.has_duplicate
                and self._express_eligible(plan)):
            self._launch_express(plan)
            return
        fabric.express_stats.fallbacks += 1
        fabric.express_stats.stepped_hops += plan.n_hops
        yield from self._stepped_from(0)

    # -- span tracing ---------------------------------------------------

    def _trace_begin(self, tracer) -> None:
        """Open this segment's "wire" span (tracer known non-None).

        Firmware-driven worms parent under the packet's attempt span
        and are skipped entirely for unsampled packets; bare worms
        (tests, microbenchmarks) root their own trace.  Everything
        recorded here is lane-independent: the express and stepped
        paths produce bit-identical span trees for the same flight.
        """
        parent = None
        tp = self.meta.get("tp")
        attrs = {}
        if tp is not None:
            ctx = tp.trace
            if ctx is None:
                return  # unsampled packet
            parent = ctx.attempt
            attrs["seg"] = tp.seg_index
        tag = self.meta.get("tag")
        if tag is not None:
            attrs["tag"] = tag
        seg = self.segment
        self._span = tracer.begin(
            "wire", self.sim.now, parent=parent,
            component=f"wire[{seg.src}->{seg.dst}]",
            src=seg.src, dst=seg.dst,
            bytes=self._image_out.wire_length, **attrs)
        self._hop_times = []

    def _trace_close(self, status: str = "ok") -> None:
        """Close the wire span, emitting its per-hop children.

        Hop spans run from channel request to channel grant; a
        never-interrupted express flight materializes them from its
        closed-form acquire clock (the same floats the stepped
        generator would have recorded).  A killed virtual express
        flight contributes only the holds mature at kill time —
        exactly the channels its stepped twin would have acquired.
        """
        span = self._span
        if span is None:
            return
        self._span = None
        tracer = self.fabric.tracer
        hops = self._hop_times or []
        if not hops and self._acq:
            now = self.sim.now
            hops = [(a, a) for a in self._acq if a <= now]
        if self.fabric.n_lanes > 1:
            # Lane occupancy rides on the hop spans; omitted entirely
            # on single-lane fabrics so their dumps stay byte-stable.
            lanes = self._lanes
            for i, (t_req, t_acq) in enumerate(hops):
                tracer.begin(f"hop{i}", t_req, parent=span,
                             component=span.component,
                             lane=lanes[i]).close(t_acq)
        else:
            for i, (t_req, t_acq) in enumerate(hops):
                tracer.begin(f"hop{i}", t_req, parent=span,
                             component=span.component).close(t_acq)
        if self.header_time is not None:
            span.attrs["header"] = self.header_time
        span.attrs["blocked_ns"] = self.blocked_ns
        span.close(self.sim.now, status)
        if status != "ok":
            tp = self.meta.get("tp")
            if tp is not None and tp.trace is not None:
                tp.trace.attempt.close(self.sim.now, status)

    # -- express lane ---------------------------------------------------

    def _arbiter(self):
        """The destination NIC's memory arbiter, if it has one."""
        return getattr(getattr(self.observer, "nic", None), "arbiter", None)

    def _express_eligible(self, plan: FlightPlan) -> bool:
        """Whole-route-free check (claim conflicts already handled)."""
        # A destination NIC with an *enabled* memory arbiter derives
        # engine speeds from live counters; the express lane would
        # start its recv DMA accounting at header time instead of
        # head-arrival time, which that arbiter could observe.
        arbiter = self._arbiter()
        if arbiter is not None and arbiter.enabled:
            return False
        down = self.fabric.down_keys
        if down and not down.isdisjoint(plan.keys):
            # A dead cable on the route: take the stepped path so the
            # head is lost at the down channel with exact timing.
            return False
        for ch, lane in zip(plan.channels, self._lanes):
            res = ch.lanes[lane]
            if not res.free or res.queue_length:
                return False
        return True

    def _launch_express(self, plan: FlightPlan) -> None:
        """Fly the whole segment in closed form: two calendar entries
        (header arrival, completion).

        The clock replay below performs the *exact* float-addition
        sequence of the stepped generator (``now = now + delay`` per
        hop, never ``now = head``), so every derived timestamp is
        bit-identical to the stepped path's.
        """
        sim, t = self.sim, self.timings
        chans = plan.channels
        now = sim.now
        acq = [now]
        head = now + chans[0].prop_ns + t.link_byte_ns
        for h in range(plan.n_hops):
            out = chans[h + 1]
            delay = _forward_delay(head, now)
            if delay > 0.0:
                now = now + delay
            acq.append(now)
            head = now + plan.falls[h] + out.prop_ns

        self._acq = acq
        self._express_live = True
        self.fabric.express_stats.hits += 1
        token = self._express_token
        delay = _forward_delay(head, now)
        if delay > 0.0:
            now = now + delay
        arrival = now
        h_time = arrival + self._early
        sim.schedule_at(h_time,
                        lambda: self._express_header(token, arrival))
        if self._remaining > 0:
            c_time = h_time + self._remaining
        else:
            c_time = h_time
        sim.schedule_at(c_time, lambda: self._express_complete(token))

    def _express_header(self, token: int, arrival: float) -> None:
        """Early-recv notification (stepped path: after the first
        ``early_recv_bytes`` landed)."""
        if token != self._express_token:
            return
        arbiter = self._head_arrived(arrival)
        gate = self.observer.on_header(self, self.sim.now)
        if gate is None:
            return  # completion entry stays armed
        # Receive-buffer backpressure: the tail moves to a process that
        # waits out the gate (and the remaining bytes) exactly as the
        # stepped path would.
        self._express_token += 1  # cancel the scheduled completion
        self._active_proc = self.sim.process(
            self._drive(self._tail(arbiter, gate)),
            name=f"worm{self.worm_id}-gated")

    def _express_complete(self, token: int) -> None:
        if token != self._express_token:
            return
        arbiter = self._arbiter()
        if arbiter is not None:
            arbiter.engine_stop("recv_dma")
        self._complete()

    def _express_interrupted(self, t1: float) -> None:
        """A contender is about to look at our channels (time ``t1``).

        Materialise every hold whose closed-form acquire time has
        matured (each hold starts at that time), and demote any immature
        suffix to the stepped lane at its natural request time.  Full
        demotion can only happen before header arrival — by then every
        acquire time has matured — so the scheduled header/complete
        entries are kept whenever the whole path materialises.
        """
        plan, acq = self._plan, self._acq
        chans = plan.channels
        lanes = self._lanes
        limit = len(chans)
        j = limit
        for i in range(limit):
            if acq[i] > t1:
                j = i
                break
        for i in range(j):
            res = chans[i].lanes[lanes[i]]
            ok = res.try_acquire(owner=self, since=acq[i])
            assert ok, "express-held lane was not free at interrupt"
            self._held.append(res)
        if self._hop_times is not None:
            # Materialised holds were uncontended, so request == grant
            # at the closed-form acquire instants — exactly what the
            # stepped generator would have recorded.
            self._hop_times = [(a, a) for a in acq[:j]]
        self._express_live = False
        if j == limit:
            # Every channel acquired: the header/completion entries
            # remain valid.
            return
        # Immature suffix: cancel the express entries and resume the
        # stepped lane from channel j at the instant the stepped worm
        # would have requested it.
        self._express_token += 1
        self.fabric.express_stats.stepped_hops += plan.n_hops - (j - 1)
        self.sim.schedule_at(acq[j], lambda: self._spawn_demoted(j))

    def _spawn_demoted(self, index: int) -> None:
        if self._killed:
            return
        # process_now, not process: the continuation's first action is
        # the channel request the stepped worm would have made at this
        # exact calendar position, and it must not lose same-time FIFO
        # races through an extra immediate-lane hop.
        self._active_proc = self.sim.process_now(
            self._drive(self._stepped_from(index)),
            name=f"worm{self.worm_id}-demoted")

    # -- stepped lane ---------------------------------------------------

    def _stepped_from(self, index: int):
        """Advance the header hop by hop from ``channels[index]`` on.

        A fallback launch enters at channel 0; a demoted express flight
        enters at its first immature channel, holding every channel
        before it, at the instant its stepped twin would request it.
        Each hop requests the next lane (the output may be busy:
        wormhole blocking) and then waits for the head to reach the
        next input.
        """
        sim, fabric, plan = self.sim, self.fabric, self._plan
        chans, lanes, keys = plan.channels, self._lanes, self._lane_keys
        held = self._held
        for i in range(index, len(chans)):
            out = chans[i]
            if keys[i] in keys[:len(held)]:
                # A wormhole packet that routes back onto a lane it
                # still occupies waits for itself forever — this
                # deadlocks on real hardware too.  Fail loudly so
                # hand-built test routes get a diagnosis, not a hang.
                raise RuntimeError(
                    f"worm {self.worm_id} re-enters channel {out!r} it"
                    " already holds (self-deadlocking route)"
                )
            down = fabric.down_keys
            if down and out.key in down:
                # The output port feeding this cable is dead: the head
                # cannot advance and the packet is lost on the wire.
                raise _LinkDown(out)
            res = out.lanes[lanes[i]]
            block_start = sim.now
            yield res.request(owner=self)
            held.append(res)
            if i:
                self.blocked_ns += sim.now - block_start
                head = sim.now + plan.falls[i - 1] + out.prop_ns
            else:
                # Injection: the NIC's send DMA starts once the wire is
                # free (Stop&Go at the source), and the leading byte
                # reaches the first switch after propagation plus one
                # byte time on the wire.
                head = sim.now + out.prop_ns + self.timings.link_byte_ns
            if self._hop_times is not None:
                self._hop_times.append((block_start, sim.now))
            # The head reaches the next switch (routing decision and
            # crossbar setup happen as it arrives) or, after the last
            # channel, the destination NIC.
            delay = _forward_delay(head, sim.now)
            if delay > 0.0:
                yield Timeout(delay)
        yield from self._tail(self._head_arrived(sim.now))

    # -- destination ----------------------------------------------------

    def _head_arrived(self, t: float):
        """The head reached the destination NIC at ``t``: record it and
        start the receive DMA, which streams the packet into SRAM (and
        feeds the LANai memory arbiter, returned if there is one)."""
        self.header_time = t
        self.image = self._image_out  # route bytes consumed; NIC sees type
        arbiter = self._arbiter()
        if arbiter is not None:
            arbiter.engine_start("recv_dma")
        return arbiter

    def _tail(self, arbiter, gate=None):
        """Receive epilogue of every process-driven flight.

        The stepped lane enters at head arrival, with no ``gate`` yet:
        the early-recv notification comes once the first bytes land.
        An express flight stalled by its ``on_header`` enters with that
        gate.  The packet stalls on the wire, channels held, until the
        gate triggers (Stop&Go backpressure); then the remaining bytes
        stream in at link rate (the body follows the header with no
        further per-switch cost).
        """
        try:
            if gate is None:
                yield Timeout(self._early)
                gate = self.observer.on_header(self, self.sim.now)
            if gate is not None:
                yield gate
            if self._remaining > 0:
                yield Timeout(self._remaining)
        finally:
            if arbiter is not None:
                arbiter.engine_stop("recv_dma")
        self._complete()

    def _complete(self) -> None:
        """The tail drained: settle the holds, close the span, notify."""
        now = self.sim.now
        self.complete_time = now
        self._express_live = False
        if self._held:
            self._release_all()
        else:
            # Fully virtual express flight: nothing ever queued on its
            # lanes (a contender would have materialised them), so
            # only the lanes' load counters need the holds added, as a
            # release would have added them.
            acq, lanes = self._acq, self._lanes
            for i, ch in enumerate(self._plan.channels):
                res = ch.lanes[lanes[i]]
                res.grants += 1
                res.busy_ns += now - acq[i]
            self._release_claims()
        self._trace_close()
        self.observer.on_complete(self, now)

    # ------------------------------------------------------------------

    def _abort(self) -> None:
        """Fault teardown: cancel a queued request, settle a stray
        grant, and release every hold and claim.

        The holds are a prefix of the route, so the one lane the worm
        may have requested without holding it yet is the next one,
        ``channels[len(_held)]``.  A request granted in the same
        instant the worm was killed (the holder released just before
        the interrupt landed) leaves the worm among that lane's holders
        without a ``_held`` entry; it is released here so the channel
        is not wedged.
        """
        plan, i = self._plan, len(self._held)
        if plan is not None and i < len(plan.channels):
            res = plan.channels[i].lanes[self._lanes[i]]
            if (not res.cancel(self) and self in res.holders()
                    and res not in self._held):
                res.release(owner=self)
        self._release_all()
        self._trace_close("killed")

    def _release_all(self) -> None:
        for res in self._held:
            res.release(owner=self)
        self._held.clear()
        self._release_claims()

    def _release_claims(self) -> None:
        if self._claimed:
            self.fabric.release_claims(self, self._lane_keys)
            self._claimed = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Worm {self.worm_id} seg {self.segment.src}->{self.segment.dst}"
            f" len={self.image.wire_length}B>"
        )

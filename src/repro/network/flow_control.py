"""Byte-level Stop&Go flow control: the reference model.

The main simulator models a wormhole packet at *packet granularity*:
a blocked worm holds every channel between its tail and head, and the
body streams behind the head with no per-byte bookkeeping.  That is an
approximation of Myrinet's real mechanism — **Stop&Go**: each receiver
maintains a small slack buffer; when its occupancy crosses the STOP
threshold it sends a STOP control symbol upstream, and a GO symbol
when it drains below the GO threshold.  The slack absorbs the
round-trip of those symbols, so the sender never overruns the buffer
and no byte is lost.

This module implements the byte-level mechanism for a single channel
(sender -> receiver over a cable with propagation delay), which lets
tests *quantify* the approximation:

* an unblocked transfer finishes in exactly ``bytes x byte_time``
  (identical to the packet-granularity model), and
* when the receiver stalls mid-packet, the sender keeps transmitting
  only for the slack's worth of bytes and then stops — the extra
  "progress" a blocked packet makes versus the whole-path-holding
  approximation is bounded by the slack size (tens of bytes on real
  Myrinet, i.e. well under one packet).

A transfer runs as two processes on the simulation calendar, a sender
and a receiver, each waking once per byte time until its share of the
transfer is done (a blocked receiver and a stopped sender keep
polling).  No workload builds a channel; it is a test instrument.

The Myrinet slack-buffer sizing rule also lives here
(:func:`required_slack_bytes`): the buffer must cover the bytes in
flight during one control-symbol round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import Event, Simulator, Timeout

__all__ = ["StopGoChannel", "StopGoStats", "required_slack_bytes"]


def required_slack_bytes(
    prop_ns: float, byte_ns: float, hysteresis_bytes: int = 8
) -> int:
    """Minimum slack so Stop&Go never overruns or starves.

    One round trip of control symbols (2 x propagation) of in-flight
    bytes, plus the stop/go hysteresis band.
    """
    in_flight = int(2.0 * prop_ns / byte_ns) + 1
    return in_flight + hysteresis_bytes


@dataclass
class StopGoStats:
    """Counters of one channel, cumulative over its transfers."""

    bytes_sent: int = 0
    bytes_delivered: int = 0
    stops_sent: int = 0
    gos_sent: int = 0
    sender_stalled_ns: float = 0.0
    max_slack_occupancy: int = 0


class StopGoChannel:
    """One directed cable with byte-level Stop&Go flow control.

    The receiver drains the slack buffer at one byte per byte time
    while unblocked; calling :meth:`block_receiver` /
    :meth:`unblock_receiver` models downstream wormhole blocking.  A
    sent byte lands in the slack buffer one propagation later, and a
    STOP or GO symbol takes effect at the sender one propagation after
    the receiver emits it.
    """

    def __init__(
        self,
        sim: Simulator,
        prop_ns: float,
        byte_ns: float,
        slack_bytes: Optional[int] = None,
        stop_threshold: Optional[int] = None,
        go_threshold: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.prop_ns = prop_ns
        self.byte_ns = byte_ns
        self.slack_bytes = slack_bytes if slack_bytes is not None else \
            required_slack_bytes(prop_ns, byte_ns)
        self.stop_threshold = (stop_threshold if stop_threshold is not None
                               else max(1, self.slack_bytes // 2))
        self.go_threshold = (go_threshold if go_threshold is not None
                             else max(0, self.stop_threshold // 2))
        if not (0 <= self.go_threshold < self.stop_threshold
                <= self.slack_bytes):
            raise ValueError("need 0 <= go < stop <= slack")
        self.stats = StopGoStats()
        self._occupancy = 0
        self._sender_stopped = False
        self._receiver_blocked = False
        self._done: Optional[Event] = None

    # -- receiver-side control ------------------------------------------

    def block_receiver(self) -> None:
        """Model downstream wormhole blocking: stop draining."""
        self._receiver_blocked = True

    def unblock_receiver(self) -> None:
        """Downstream unblocked: resume draining the slack buffer."""
        self._receiver_blocked = False

    @property
    def slack_occupancy(self) -> int:
        """Bytes currently parked in the receiver's slack buffer."""
        return self._occupancy

    # -- the transfer ------------------------------------------------------

    def transfer(self, n_bytes: int) -> Event:
        """Send ``n_bytes``; the event fires when the last byte has
        been *delivered* (drained past the slack buffer)."""
        if self._done is not None:
            raise RuntimeError("one transfer at a time on this channel")
        self._done = Event(self.sim, name="stopgo-done")
        stats = self.stats
        self.sim.process(self._sender(stats.bytes_sent + n_bytes),
                         name="stopgo-send")
        self.sim.process(self._receiver(stats.bytes_delivered + n_bytes),
                         name="stopgo-recv")
        return self._done

    def _sender(self, sent_target: int):
        stats = self.stats
        stall_started: Optional[float] = None
        while stats.bytes_sent < sent_target:
            if self._sender_stopped:
                if stall_started is None:
                    stall_started = self.sim.now
                yield Timeout(self.byte_ns)
                continue
            if stall_started is not None:
                stats.sender_stalled_ns += self.sim.now - stall_started
                stall_started = None
            yield Timeout(self.byte_ns)
            stats.bytes_sent += 1
            # The byte lands in the slack buffer one propagation later.
            self.sim.schedule(self.prop_ns, self._byte_arrives)

    def _byte_arrives(self) -> None:
        stats = self.stats
        self._occupancy += 1
        stats.max_slack_occupancy = max(stats.max_slack_occupancy,
                                        self._occupancy)
        if self._occupancy > self.slack_bytes:
            raise RuntimeError(
                "slack overrun: Stop&Go failed to protect the buffer"
                f" (occupancy {self._occupancy} > {self.slack_bytes})"
            )
        if self._occupancy >= self.stop_threshold and not self._sender_stopped:
            # STOP symbol travels upstream one propagation delay.
            stats.stops_sent += 1
            self.sim.schedule(self.prop_ns, self._set_stop)

    def _set_stop(self) -> None:
        self._sender_stopped = True

    def _set_go(self) -> None:
        self._sender_stopped = False

    def _receiver(self, delivered_target: int):
        stats = self.stats
        while stats.bytes_delivered < delivered_target:
            if self._receiver_blocked or self._occupancy == 0:
                yield Timeout(self.byte_ns)
                continue
            yield Timeout(self.byte_ns)
            if self._receiver_blocked or self._occupancy == 0:
                continue
            self._occupancy -= 1
            stats.bytes_delivered += 1
            if (self._sender_stopped
                    and self._occupancy <= self.go_threshold):
                stats.gos_sent += 1
                self.sim.schedule(self.prop_ns, self._set_go)
        done, self._done = self._done, None
        done.succeed(stats)

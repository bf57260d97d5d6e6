"""Tests for the byte-level Stop&Go reference model.

Besides unit-testing the mechanism, these tests *quantify* the
packet-granularity approximation the main simulator uses: the extra
progress a blocked packet can make is bounded by the slack size.
The scenario table pins completion times and every counter, including
float stall durations, to exact values.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.sim.engine import Simulator
from tests.oracles.stopgo import (
    StopGoChannel,
    required_slack_bytes,
    StopGoStats,
)


BYTE_NS = 6.25
PROP_NS = 13.0


def make_channel(sim, **kw):
    return StopGoChannel(sim, prop_ns=PROP_NS, byte_ns=BYTE_NS, **kw)


class TestSlackSizing:
    def test_covers_control_round_trip(self):
        slack = required_slack_bytes(PROP_NS, BYTE_NS)
        in_flight = 2 * PROP_NS / BYTE_NS
        assert slack > in_flight

    def test_grows_with_cable_length(self):
        short = required_slack_bytes(10.0, BYTE_NS)
        long = required_slack_bytes(100.0, BYTE_NS)
        assert long > short

    def test_threshold_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            StopGoChannel(sim, PROP_NS, BYTE_NS, slack_bytes=8,
                          stop_threshold=9)
        with pytest.raises(ValueError):
            StopGoChannel(sim, PROP_NS, BYTE_NS, slack_bytes=8,
                          stop_threshold=4, go_threshold=4)


class TestUnblockedTransfer:
    def test_completes_all_bytes(self):
        sim = Simulator()
        ch = make_channel(sim)
        done = ch.transfer(200)
        stats: StopGoStats = sim.run_until_event(done)
        assert stats.bytes_sent == 200
        assert stats.bytes_delivered == 200

    def test_throughput_is_link_rate(self):
        """Unblocked, Stop&Go adds no sustained slowdown: total time is
        within a small constant of bytes x byte_time."""
        sim = Simulator()
        ch = make_channel(sim)
        done = ch.transfer(400)
        sim.run_until_event(done)
        ideal = 400 * BYTE_NS
        assert sim.now <= ideal * 1.1 + 10 * BYTE_NS

    def test_never_overruns_slack(self):
        sim = Simulator()
        ch = make_channel(sim)
        done = ch.transfer(500)
        stats = sim.run_until_event(done)
        assert stats.max_slack_occupancy <= ch.slack_bytes


class TestBlockedReceiver:
    def run_with_block(self, block_at_ns, unblock_at_ns, n_bytes=300):
        sim = Simulator()
        ch = make_channel(sim)
        sim.schedule(block_at_ns, ch.block_receiver)
        sim.schedule(unblock_at_ns, ch.unblock_receiver)
        done = ch.transfer(n_bytes)
        stats = sim.run_until_event(done)
        return sim, ch, stats

    def test_sender_stops_within_slack(self):
        """After the receiver blocks, the sender transmits at most the
        slack's worth of further bytes — the bound on the
        packet-granularity approximation."""
        sim, ch, stats = self.run_with_block(200.0, 5_000.0)
        assert stats.stops_sent >= 1
        assert stats.sender_stalled_ns > 0
        assert stats.max_slack_occupancy <= ch.slack_bytes

    def test_no_bytes_lost_across_stall(self):
        sim, ch, stats = self.run_with_block(150.0, 3_000.0, n_bytes=250)
        assert stats.bytes_delivered == 250

    def test_go_resumes_transmission(self):
        sim, ch, stats = self.run_with_block(150.0, 3_000.0)
        assert stats.gos_sent >= 1
        # Completion happens after the unblock instant.
        assert sim.now > 3_000.0

    def test_stall_duration_reflects_block(self):
        """A longer receiver stall stalls the sender proportionally."""
        _s1, _c1, short = self.run_with_block(150.0, 2_000.0)
        _s2, _c2, long = self.run_with_block(150.0, 8_000.0)
        assert long.sender_stalled_ns > short.sender_stalled_ns


class TestApproximationBound:
    def test_blocked_progress_bounded_by_slack(self):
        """The headline validation: versus the main simulator's
        "blocked packet makes zero progress" assumption, the byte-level
        model lets at most ``slack_bytes`` extra bytes through —
        negligible against any real packet."""
        sim = Simulator()
        ch = make_channel(sim)
        ch.block_receiver()  # blocked from the start
        ch.transfer(1000)
        sim.run(until=100_000.0)
        # Sender pushed at most the slack (plus control-symbol flight).
        assert ch.stats.bytes_sent <= ch.slack_bytes + 4
        assert ch.stats.bytes_delivered == 0

    def test_one_transfer_at_a_time(self):
        sim = Simulator()
        ch = make_channel(sim)
        ch.transfer(10)
        with pytest.raises(RuntimeError):
            ch.transfer(10)

    def test_back_to_back_transfers_each_send_their_bytes(self):
        """The counters are cumulative; each transfer counts its own
        bytes from where they stood when it started."""
        sim = Simulator()
        ch = make_channel(sim)
        sim.run_until_event(ch.transfer(100))
        first_done = sim.now
        stats = sim.run_until_event(ch.transfer(100))
        assert stats.bytes_sent == stats.bytes_delivered == 200
        assert sim.now - first_done >= 100 * BYTE_NS


class TestIdleSchedulesNothing:
    def test_no_transfer_no_calendar_entries(self):
        sim = Simulator()
        ch = make_channel(sim)
        ch.block_receiver()
        ch.unblock_receiver()
        assert sim.pending == 0
        assert ch.stats.bytes_sent == 0


#: Off-lattice instants at which a scenario reads the counters and the
#: slack occupancy, as a test callback would.
PROBES = tuple(37.1 + 211.7 * k for k in range(12))


def _run_scenario(*, prop_ns, byte_ns, n_bytes, blocks, channel_kw):
    """Run one transfer; return (completion time, final stats tuple,
    probe samples).  ``blocks`` is a list of (time, "block"|"unblock")."""
    sim = Simulator()
    ch = StopGoChannel(sim, prop_ns=prop_ns, byte_ns=byte_ns,
                       **(channel_kw or {}))
    for when, action in blocks:
        fn = ch.block_receiver if action == "block" else ch.unblock_receiver
        sim.schedule(when, fn)
    samples = []
    for when in PROBES:
        sim.schedule(
            when,
            lambda w=when: samples.append(
                (w, astuple(ch.stats), ch.slack_occupancy)),
        )
    done = ch.transfer(n_bytes)
    value = sim.run_until_event(done)
    return sim.now, astuple(value), samples, ch.slack_bytes


SCENARIOS = [
    # (prop_ns, byte_ns, n_bytes, blocks, channel_kw,
    #  completion ns, final (sent, delivered, stops, gos, stalled ns,
    #  max occupancy), (stats, occupancy) at the third probe, 460.5 ns)
    pytest.param(13.0, 6.25, 300, (), None,
                 1900.0, (300, 300, 0, 0, 0.0, 2),
                 ((73, 69, 0, 0, 0.0, 2), 2), id="free-flow"),
    pytest.param(13.0, 6.25, 0, (), None,
                 0.0, (0, 0, 0, 0, 0.0, 0), None, id="zero-bytes"),
    pytest.param(13.0, 6.25, 1, (), None,
                 31.25, (1, 1, 0, 0, 0.0, 1), None, id="one-byte"),
    pytest.param(13.0, 6.25, 300, ((200.0, "block"), (5_000.0, "unblock")),
                 None, 6731.25, (300, 300, 3, 3, 4831.25, 11),
                 ((38, 27, 3, 0, 0.0, 11), 11), id="block-unblock"),
    pytest.param(13.0, 6.25, 250, ((150.0, "block"), (3_000.0, "unblock"),
                                   (4_000.0, "block"), (6_500.0, "unblock")),
                 None, 7000.0, (250, 250, 6, 6, 5412.5, 11),
                 ((30, 19, 3, 0, 0.0, 11), 11), id="double-stall"),
    pytest.param(12.5, 6.25, 200, ((100.0, "block"), (2_000.0, "unblock")),
                 None, 3187.5, (200, 200, 2, 2, 1918.75, 10),
                 ((22, 12, 2, 0, 0.0, 10), 10), id="prop-on-grid"),
    pytest.param(6.25, 6.25, 120, ((100.0, "block"), (1_500.0, "unblock")),
                 None, 2181.25, (120, 120, 1, 1, 1418.75, 7),
                 ((20, 13, 1, 0, 0.0, 7), 7), id="prop-equals-byte"),
    pytest.param(1.0, 8.0, 150, ((96.0, "block"), (1_000.0, "unblock")),
                 None, 2136.0, (150, 150, 1, 1, 920.0, 5),
                 ((14, 9, 1, 0, 0.0, 5), 5), id="short-cable"),
    # Long cable: the default sizing rule cannot absorb a mid-stream
    # block (stop threshold + round-trip flight exceeds the slack), so
    # size the buffer explicitly.
    pytest.param(40.0, 2.0, 400, ((100.0, "block"), (2_000.0, "unblock")),
                 {"slack_bytes": 100, "stop_threshold": 30,
                  "go_threshold": 10},
                 2806.0, (400, 400, 20, 11, 1964.0, 70),
                 ((98, 28, 20, 0, 0.0, 70), 70), id="long-cable"),
    pytest.param(13.0, 6.25, 200, ((120.0, "block"), (2_400.0, "unblock")),
                 {"slack_bytes": 20, "stop_threshold": 1, "go_threshold": 0},
                 5000.0, (200, 200, 101, 34, 3725.0, 4),
                 ((12, 8, 6, 1, 43.75, 4), 4), id="stop-go-oscillation"),
    pytest.param(0.3, 0.1, 150, ((7.0, "block"), (60.0, "unblock")), None,
                 69.00000000000036, (150, 150, 4, 3, 53.50000000000061, 14),
                 None, id="non-dyadic-times"),
]


class TestPinnedScenarios:
    @pytest.mark.parametrize(
        "prop_ns,byte_ns,n_bytes,blocks,channel_kw,end_ns,final,mid",
        SCENARIOS)
    def test_pinned_outcome(self, prop_ns, byte_ns, n_bytes, blocks,
                            channel_kw, end_ns, final, mid):
        end, stats, samples, slack = _run_scenario(
            prop_ns=prop_ns, byte_ns=byte_ns, n_bytes=n_bytes,
            blocks=blocks, channel_kw=channel_kw)
        assert end == end_ns
        assert stats == final
        assert (samples[2][1:] if len(samples) > 2 else None) == mid
        # Every mid-run read is consistent: counters never go back,
        # nothing is delivered before it was sent, and the slack buffer
        # never overflows.
        prev = (0, 0, 0, 0, 0.0, 0)
        for _when, sample, occupancy in samples:
            assert all(a >= b for a, b in zip(sample, prev))
            sent, delivered = sample[0], sample[1]
            assert delivered <= sent
            assert occupancy <= sample[5] <= slack
            prev = sample

    def test_blocked_forever(self):
        """A receiver blocked from the start: the sender pushes the
        slack's worth of bytes, then stays stopped."""
        sim = Simulator()
        ch = make_channel(sim)
        ch.block_receiver()
        ch.transfer(500)
        sim.run(until=20_001.3)
        assert astuple(ch.stats) == (11, 0, 3, 0, 0.0, 11)
        assert ch.slack_occupancy == 11

    def test_overrun_raises(self):
        """A mis-sized slack fails loudly at the overflowing byte."""
        sim = Simulator()
        ch = StopGoChannel(sim, prop_ns=40.0, byte_ns=2.0, slack_bytes=10,
                           stop_threshold=8, go_threshold=2)
        ch.block_receiver()  # occupancy climbs unchecked past the STOP
        done = ch.transfer(100)
        with pytest.raises(RuntimeError, match="occupancy 11 > 10"):
            sim.run_until_event(done)
        assert sim.now == 62.0

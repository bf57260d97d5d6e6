"""Determinism guarantees of the fast-path engine.

The immediate lane and direct-from-calendar timeout resume must not
change *anything* observable: persisted experiment documents are
byte-identical to golden copies captured from the pre-fast-path
engine (``tests/golden/``), serial and fan-out runs agree, and mixed
immediate-lane / calendar-heap workloads dispatch in exact global
``(time, priority, seq)`` order.
"""

from __future__ import annotations

import heapq
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _run_cli(tmp_path, name, *argv):
    out = tmp_path / name
    cmd = [sys.executable, "-m", "repro.cli", *argv, "--save", str(out)]
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run(cmd, check=True, env=env, cwd=tmp_path,
                   stdout=subprocess.DEVNULL)
    return out.read_bytes()


class TestGoldenDocuments:
    """Same seeds, new engine -> byte-identical persisted documents."""

    def test_fig7_byte_identical(self, tmp_path):
        got = _run_cli(tmp_path, "fig7.json", "run", "fig7",
                       "--iterations", "5")
        assert got == (GOLDEN / "fig7.json").read_bytes()

    def test_fig8_byte_identical(self, tmp_path):
        got = _run_cli(tmp_path, "fig8.json", "run", "fig8",
                       "--iterations", "5")
        assert got == (GOLDEN / "fig8.json").read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_throughput_byte_identical(self, tmp_path, jobs):
        got = _run_cli(
            tmp_path, f"throughput_j{jobs}.json", "run", "throughput",
            "--switches", "8", "--rates", "0.02", "0.06",
            "--duration", "80", "--jobs", jobs,
        )
        assert got == (GOLDEN / "throughput.json").read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_fault_campaign_byte_identical(self, tmp_path, jobs):
        """Packet loss, corruption and a scheduled fault campaign: GM's
        go-back-N recovery and the fabric's fault events, byte for
        byte (CI's fault-smoke arguments)."""
        got = _run_cli(
            tmp_path, f"fault_campaign_j{jobs}.json", "run",
            "fault-campaign", "--messages", "8", "--loss", "0.0", "0.2",
            "--corrupt", "0.1", "--schedules", "none", "campaign",
            "--seed", "13", "--jobs", jobs,
        )
        assert got == (GOLDEN / "fault_campaign.json").read_bytes()


def _oracle_order(ops):
    """Reference dispatch order: a single (time, priority, seq) heap
    with no immediate lane — the semantics the two-lane engine must
    reproduce exactly."""
    q, fired, seq = [], [], 0
    for i, (delay, prio, _kids) in enumerate(ops):
        seq += 1
        heapq.heappush(q, (delay, prio, seq, ("top", i)))
    while q:
        now, _prio, _seq, (kind, i) = heapq.heappop(q)
        fired.append((kind, i))
        if kind == "top":
            for j, (kdelay, kprio) in enumerate(ops[i][2]):
                seq += 1
                heapq.heappush(q, (now + kdelay, kprio, seq,
                                   ("kid", (i, j))))
    return fired


_OP = st.tuples(
    st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0]),   # bias toward ties
    st.sampled_from([-1, 0, 0, 1]),
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.0, 1.0]),
                  st.sampled_from([-1, 0, 0, 1])),
        max_size=3,
    ),
)


class TestLaneInterleaving:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_OP, max_size=24), st.booleans())
    def test_matches_single_heap_oracle(self, ops, absolute):
        """Immediate-lane and heap events at equal times interleave in
        FIFO ``seq`` order, exactly as one global calendar would —
        whether children are scheduled relative to now (``schedule``)
        or at an absolute time (``schedule_at``)."""
        sim = Simulator()
        fired = []

        def fire_kid(i, j):
            fired.append(("kid", (i, j)))

        def fire_top(i):
            fired.append(("top", i))
            for j, (kdelay, kprio) in enumerate(ops[i][2]):
                if absolute:
                    sim.schedule_at(sim.now + kdelay,
                                    lambda i=i, j=j: fire_kid(i, j),
                                    priority=kprio)
                else:
                    sim.schedule(kdelay, lambda i=i, j=j: fire_kid(i, j),
                                 priority=kprio)

        for i, (delay, prio, _kids) in enumerate(ops):
            sim.schedule(delay, lambda i=i: fire_top(i), priority=prio)
        sim.run()
        assert fired == _oracle_order(ops)

    def test_zero_delay_chain_is_fifo(self):
        """A succeed->resume style chain keeps strict submission order
        against same-time heap entries on both sides."""
        sim = Simulator()
        order = []
        sim.schedule(0.0, lambda: order.append("imm1"))
        sim.schedule(0.0, lambda: order.append("heap-pri1"), priority=1)
        sim.schedule(0.0, lambda: order.append("imm2"))
        sim.schedule(0.0, lambda: order.append("heap-pri-neg"), priority=-1)
        sim.run()
        assert order == ["heap-pri-neg", "imm1", "imm2", "heap-pri1"]


class TestGoldenFilesAreCanonical:
    def test_golden_docs_parse_and_carry_format_version(self):
        for name in ("fig7.json", "fig8.json", "throughput.json",
                     "fault_campaign.json"):
            doc = json.loads((GOLDEN / name).read_text())
            assert doc["format_version"] == 2, name

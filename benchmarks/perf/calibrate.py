"""Frozen calibration kernel for the perf benchmark.

A fixed pure-Python loop over a heap calendar that resumes generator
"processes" — the same interpreter work (``heapq`` pushes and pops,
generator ``send``, small-int arithmetic) the simulator's event loop
does, but with no dependency on ``repro``.  The benchmark times it
before the first repeat and after every repeat and reports host seconds
scaled to :data:`REFERENCE_S`: ``seconds * REFERENCE_S / calibration``,
with the invocation's median calibration.  The scaled seconds compare
across machines and across busy and quiet spells of a shared host.

One calibration is the fastest of :data:`RUNS` kernel runs (~0.15 s in
all).  A shared host stalls a sub-second loop now and then; the fastest
run measures the machine rather than the stall.

Never edit this file: a change to the kernel changes every scaled
number in the ledger.  It checks itself with :data:`CHECKSUM`.
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["CHECKSUM", "REFERENCE_S", "kernel", "time_kernel"]

#: Calendar entries dispatched per kernel run (~0.05 s on a current x86 core).
STEPS = 70_000
#: Kernel runs per calibration; the fastest one counts.
RUNS = 3
#: Concurrent generator processes on the calendar.
PROCESSES = 64
#: What :func:`kernel` returns; anything else means the kernel changed.
CHECKSUM = 8120463
#: :func:`time_kernel` on the machine the ledger was first recorded on
#: (a 2-core x86 VM, Python 3.11): scaled timings are seconds at its speed.
REFERENCE_S = 0.048


def _process(ident: int):
    """A process that yields pseudo-random delays from an LCG."""
    state = ident * 2654435761 % 2147483647 + 1
    total = 0
    while True:
        state = (state * 48271) % 2147483647
        got = yield (state & 1023) + 1
        total += got


def kernel() -> int:
    """Run the frozen workload; returns a checksum of its schedule."""
    procs = [_process(i) for i in range(PROCESSES)]
    calendar: list[tuple[int, int, int]] = []
    seq = 0
    for i, proc in enumerate(procs):
        calendar.append((next(proc), seq, i))
        seq += 1
    heapq.heapify(calendar)
    check = 0
    for _ in range(STEPS):
        now, _seq, i = heapq.heappop(calendar)
        delay = procs[i].send(now & 7)
        seq += 1
        heapq.heappush(calendar, (now + delay, seq, i))
        check = (check * 31 + i) % 9999991
    return check


def time_kernel() -> float:
    """Host seconds of the fastest of :data:`RUNS` kernel runs.

    The cyclic garbage collector is paused meanwhile: the kernel makes
    no cycles, and a collection would otherwise scan whatever the
    calling process holds, tying the result to its heap size.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(RUNS):
            t0 = time.perf_counter()
            check = kernel()
            best = min(best, time.perf_counter() - t0)
            if check != CHECKSUM:
                raise RuntimeError("calibration kernel changed: checksum"
                                   f" {check} != {CHECKSUM}")
    finally:
        if was_enabled:
            gc.enable()
    return best


if __name__ == "__main__":
    print(f"calibration: {time_kernel():.4f} s")

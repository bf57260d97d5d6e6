"""Benchmark: raw simulator performance.

Not a paper figure — a performance regression guard for the
discrete-event kernel itself, which everything else pays for.
Measures event-dispatch throughput, process context switches, and a
representative end-to-end network run.
"""

from __future__ import annotations

import time

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.mcp.packet_format import encode_packet
from repro.network.fabric import Fabric
from repro.network.worm import Worm
from repro.routing.routes import SourceRoute
from repro.sim.engine import Event, Simulator, Timeout
from repro.sim.resources import Resource
from repro.topology.graph import Topology


def test_bench_event_dispatch(benchmark):
    """Plain calendar churn: schedule/dispatch cycles."""

    def run():
        sim = Simulator()
        count = {"n": 0}

        def tick():
            count["n"] += 1
            if count["n"] < 50_000:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count["n"]

    n = benchmark(run)
    assert n == 50_000


def test_bench_process_switching(benchmark):
    """Generator-process resume cost (the firmware's currency)."""

    def run():
        sim = Simulator()
        done = {"n": 0}

        def worker():
            for _ in range(500):
                yield Timeout(1.0)
            done["n"] += 1

        for _ in range(100):
            sim.process(worker())
        sim.run()
        return done["n"]

    n = benchmark(run)
    assert n == 100


def test_bench_resource_contention(benchmark):
    """FIFO resource grant/release churn under contention."""

    def run():
        sim = Simulator()
        res = Resource(sim, capacity=2)
        finished = {"n": 0}

        def worker(i):
            for _ in range(50):
                yield res.request(owner=i)
                yield Timeout(1.0)
                res.release(owner=i)
            finished["n"] += 1

        for i in range(40):
            sim.process(worker(i))
        sim.run()
        return finished["n"]

    n = benchmark(run)
    assert n == 40


def _churn_fast(n_procs: int, n_ticks: int) -> int:
    """Timeout churn on the fast path: direct-from-calendar resume."""
    sim = Simulator()
    done = {"n": 0}

    def worker():
        for _ in range(n_ticks):
            yield Timeout(1.0)
        done["n"] += 1

    for _ in range(n_procs):
        sim.process(worker())
    sim.run()
    return done["n"]


def _churn_legacy(n_procs: int, n_ticks: int) -> int:
    """The same workload through the retired resume shape: one Event
    allocated per delay, and two calendar-heap round trips — the timer
    itself plus the succeed->resume dispatch hop, which the old engine
    also pushed through the heap.  Non-default priority keeps both
    entries off the immediate lane."""
    sim = Simulator()
    done = {"n": 0}

    def worker():
        for _ in range(n_ticks):
            ev = Event(sim, name="timeout")
            sim.schedule(
                1.0,
                lambda ev=ev: sim.schedule(0.0, ev.succeed, priority=1),
                priority=1,
            )
            yield ev
        done["n"] += 1

    for _ in range(n_procs):
        sim.process(worker())
    sim.run()
    return done["n"]


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_calendar_churn_speedup(benchmark, bench_headline):
    """The tentpole guard: timeout-heavy calendar churn must run at
    least 2x faster on the direct-resume + immediate-lane path than
    through the legacy Event-per-timeout shape."""
    n_procs, n_ticks = 100, 400

    n = benchmark(lambda: _churn_fast(n_procs, n_ticks))
    assert n == n_procs

    fast = _best_of(lambda: _churn_fast(n_procs, n_ticks))
    legacy = _best_of(lambda: _churn_legacy(n_procs, n_ticks))
    ratio = legacy / fast
    bench_headline["speedup_ratio"] = round(ratio, 3)
    bench_headline["fast_s"] = round(fast, 6)
    bench_headline["legacy_s"] = round(legacy, 6)
    assert ratio >= 2.0, (
        f"fast path only {ratio:.2f}x over legacy resume shape"
        f" (fast {fast * 1e3:.1f} ms, legacy {legacy * 1e3:.1f} ms)"
    )


def _flight_net(n_switches: int = 4):
    """A SAN line of switches with one host at each end — the
    uncontended multi-hop shape of the fig7 half-round-trip paths."""
    topo = Topology()
    switches = [topo.add_switch(n_ports=4) for _ in range(n_switches)]
    for i in range(n_switches - 1):
        topo.connect(switches[i], 2, switches[i + 1], 3)
    src = topo.attach_host(switches[0], 0, name="src")
    dst = topo.attach_host(switches[-1], 1, name="dst")
    seg = SourceRoute(
        src=src, dst=dst,
        ports=(2,) * (n_switches - 1) + (1,),
        switch_path=tuple(switches),
    )
    sim = Simulator()
    fabric = Fabric(sim, topo, Timings())
    return sim, fabric, seg


def _run_flight(n_worms: int, express: bool) -> list:
    """Sequential uncontended 512 B worms down the line; returns the
    per-worm completion timestamps (for cross-mode exactness checks)."""
    sim, fabric, seg = _flight_net()
    fabric.express_enabled = express
    image = encode_packet(seg, bytes(512))
    completes: list[float] = []

    class _Obs:
        def on_header(self, worm, t):
            return None

        def on_complete(self, worm, t):
            completes.append(t)

    obs = _Obs()

    def driver():
        for _ in range(n_worms):
            Worm(sim, fabric, seg, image, observer=obs).launch()
            yield Timeout(6000.0)  # > one full flight: truly uncontended

    sim.process(driver())
    sim.run()
    return completes


def test_bench_worm_flight(benchmark, bench_headline):
    """The express-lane guard: closed-form worm flight must be at
    least 1.5x faster than the stepped generator on an uncontended
    fig7-shaped workload — with bit-identical completion times."""
    n_worms = 400

    completes = benchmark(lambda: _run_flight(n_worms, True))
    assert len(completes) == n_worms

    assert _run_flight(n_worms, True) == _run_flight(n_worms, False)

    express = _best_of(lambda: _run_flight(n_worms, True))
    stepped = _best_of(lambda: _run_flight(n_worms, False))
    ratio = stepped / express
    bench_headline["speedup_ratio"] = round(ratio, 3)
    bench_headline["express_s"] = round(express, 6)
    bench_headline["stepped_s"] = round(stepped, 6)
    assert ratio >= 1.5, (
        f"express lane only {ratio:.2f}x over stepped flight"
        f" (express {express * 1e3:.1f} ms, stepped {stepped * 1e3:.1f} ms)"
    )


def test_bench_end_to_end_pingpong(benchmark):
    """Representative workload: a full fig6 ping-pong series."""

    def run():
        cfg = NetworkConfig(
            firmware="itb", routing="updown",
            timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
        )
        net = build_network("fig6", config=cfg)
        res = net.ping_pong("host1", "host2", size=1024, iterations=50)
        return res.mean_ns

    mean = benchmark(run)
    assert mean > 0


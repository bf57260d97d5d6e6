"""EXP-M2: distributed-application completion time (the paper's
future work).

Section 6 closes with: "we definitively will prove the behavior of
our mechanism analyzing the impact of using ITBs in the execution
time of distributed applications."  This module implements that
follow-on experiment: closed-loop communication kernels typical of
message-passing applications, run to completion under up*/down* vs
ITB routing, reporting wall-clock (simulated) execution time.

Kernels:

* **all-to-all exchange** — every host sends one message to every
  other host each iteration, then barriers; the pattern behind
  matrix transposition and FFTs, and the one that hammers the
  spanning-tree root hardest under up*/down*.
* **ring shift** — host *i* sends to host *i+1 (mod n)* each
  iteration; nearest-neighbour pressure, little root traffic.
* **random pairs** — a fresh random permutation each iteration;
  typical of irregular applications.

All kernels are closed-loop (an iteration ends only when every
message of the iteration arrived), so completion time directly
reflects network efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.builder import BuiltNetwork, build_network
from repro.harness.throughput import build_load_network
from repro.sim.engine import Timeout
from repro.topology.generators import random_irregular

__all__ = ["AppResult", "AppsResult", "measure_app_point", "run_kernel"]


@dataclass
class AppResult:
    """One (kernel, routing) completion-time measurement."""

    kernel: str
    routing: str
    n_hosts: int
    iterations: int
    message_size: int
    completion_ns: float
    messages: int

    @property
    def completion_us(self) -> float:
        return self.completion_ns / 1000.0


@dataclass
class AppsResult:
    """The full kernel × routing comparison grid."""

    results: list[AppResult] = field(default_factory=list)

    def get(self, kernel: str, routing: str) -> AppResult:
        """The result of one (kernel, routing) cell."""
        for r in self.results:
            if r.kernel == kernel and r.routing == routing:
                return r
        raise KeyError(f"no result for ({kernel!r}, {routing!r})")

    def kernels(self) -> list[str]:
        """The measured kernels, sorted by name."""
        return sorted({r.kernel for r in self.results})

    def speedup(self, kernel: str) -> float:
        """Completion-time ratio UD / ITB for one kernel."""
        return (self.get(kernel, "updown").completion_ns
                / self.get(kernel, "itb").completion_ns)


def _pairs_all_to_all(hosts: Sequence[int], _it: int,
                      _rng: np.random.Generator):
    return [(s, d) for s in hosts for d in hosts if s != d]


def _pairs_ring(hosts: Sequence[int], _it: int, _rng: np.random.Generator):
    n = len(hosts)
    return [(hosts[i], hosts[(i + 1) % n]) for i in range(n)]


def _pairs_random(hosts: Sequence[int], _it: int, rng: np.random.Generator):
    n = len(hosts)
    while True:
        perm = list(rng.permutation(list(hosts)))
        if all(a != b for a, b in zip(hosts, perm)):
            return list(zip(hosts, perm))


KERNELS: dict[str, Callable] = {
    "all-to-all": _pairs_all_to_all,
    "ring": _pairs_ring,
    "random-pairs": _pairs_random,
}


def run_kernel(
    net: BuiltNetwork,
    kernel: str,
    iterations: int = 4,
    message_size: int = 1024,
    seed: int = 13,
) -> AppResult:
    """Run one kernel to completion on an already-built network."""
    if kernel not in KERNELS:
        raise KeyError(f"unknown kernel {kernel!r};"
                       f" have {sorted(KERNELS)}")
    pair_fn = KERNELS[kernel]
    sim = net.sim
    hosts = sorted(net.gm_hosts)
    rng = np.random.default_rng(seed)
    t_start = sim.now
    total_messages = 0
    finished = sim.event("app-finished")

    def driver():
        nonlocal total_messages
        for it in range(iterations):
            pairs = pair_fn(hosts, it, rng)
            total_messages += len(pairs)
            remaining = {"n": len(pairs)}
            barrier = sim.event(f"iter{it}")

            def on_final(tp, remaining=remaining, barrier=barrier):
                if tp.dropped:
                    raise RuntimeError(
                        f"app packet dropped: {tp.drop_reason}")
                remaining["n"] -= 1
                if remaining["n"] == 0:
                    barrier.succeed()

            for s, d in pairs:
                net.nics[s].firmware.host_send(
                    dst=d, payload_len=message_size,
                    gm={"kind": "data", "last": True},
                    on_delivered=on_final,
                )
            yield barrier
            # Tiny compute phase between iterations.
            yield Timeout(1_000.0)
        finished.succeed()

    sim.process(driver(), name=f"app[{kernel}]")
    sim.run_until_event(finished)
    return AppResult(
        kernel=kernel,
        routing=net.config.routing.value,
        n_hosts=len(hosts),
        iterations=iterations,
        message_size=message_size,
        completion_ns=sim.now - t_start,
        messages=total_messages,
    )


def measure_app_point(
    kernel: str,
    routing: str,
    n_switches: int,
    iterations: int,
    message_size: int,
    hosts_per_switch: int,
    topo_seed: int,
    seed: int,
    build: Callable = build_network,
) -> AppResult:
    """One independent (kernel, routing) completion-time run."""
    topo = random_irregular(n_switches, seed=topo_seed,
                            hosts_per_switch=hosts_per_switch)
    net = build_load_network(topo, routing, build=build)
    return run_kernel(net, kernel, iterations=iterations,
                      message_size=message_size, seed=seed)

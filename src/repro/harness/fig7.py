"""EXP-F7: code overhead of ITB support (paper Figure 7).

Protocol (paper Section 5): point-to-point half-round-trip latency
between host 1 and host 2 over up*/down* routes, averaged over 100
iterations per message size, once with the original MCP and once with
the ITB-modified MCP.  Both firmwares carry only normal GM packets —
the measured delta is the cost of the *added instructions* in the
receive path, paid once per packet.

Paper results to match in shape: average delta ~125 ns, never above
~300 ns, relative overhead ~1 % (short) falling to ~0.4 % (long).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.paths import fig6_paths

__all__ = ["Fig7Result", "Fig7Row", "measure_fig7_point", "DEFAULT_SIZES"]

#: gm_allsize-style size ladder: powers of two up to the GM MTU.
DEFAULT_SIZES: tuple[int, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096
)


@dataclass
class Fig7Row:
    """One message size: original vs modified MCP latency."""

    size: int
    original_ns: float
    modified_ns: float

    @property
    def overhead_ns(self) -> float:
        return self.modified_ns - self.original_ns

    @property
    def relative_pct(self) -> float:
        return 100.0 * self.overhead_ns / self.original_ns


@dataclass
class Fig7Result:
    """The full Figure 7 series plus the paper's summary statistics."""

    rows: list[Fig7Row] = field(default_factory=list)
    iterations: int = 100

    @property
    def mean_overhead_ns(self) -> float:
        return float(np.mean([r.overhead_ns for r in self.rows]))

    @property
    def max_overhead_ns(self) -> float:
        return float(np.max([r.overhead_ns for r in self.rows]))

    @property
    def min_overhead_ns(self) -> float:
        return float(np.min([r.overhead_ns for r in self.rows]))

    @property
    def relative_short_pct(self) -> float:
        return self.rows[0].relative_pct

    @property
    def relative_long_pct(self) -> float:
        return self.rows[-1].relative_pct


def _measure(firmware: str, size: int, iterations: int,
             timings: Optional[Timings], seed: int,
             build: Callable = build_network) -> float:
    config = NetworkConfig(firmware=firmware, routing="updown", seed=seed)
    if timings is not None:
        config.timings = timings
    net = build("fig6", config=config)
    paths = fig6_paths(net.topo, net.roles)
    result = net.ping_pong(
        "host1", "host2", size=size, iterations=iterations,
        route_ab=paths.fig7_fwd, route_ba=paths.rev2,
    )
    return result.mean_ns


def measure_fig7_point(size: int, iterations: int,
                       timings: Optional[Timings], seed: int,
                       build: Callable = build_network) -> Fig7Row:
    """One independent Figure 7 point: both firmwares at one size.

    Both networks are built with the same seed, so the host-noise
    stream is identical across the two firmwares and the measured
    delta isolates the code change — the simulation analogue of
    running both MCPs on the same testbed.
    """
    orig = _measure("original", size, iterations, timings, seed, build)
    mod = _measure("itb", size, iterations, timings, seed, build)
    return Fig7Row(size=size, original_ns=orig, modified_ns=mod)

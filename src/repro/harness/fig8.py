"""EXP-F8: per-ITB ejection/re-injection overhead (paper Figure 8).

Protocol (paper Section 5): half-round-trip latency between hosts 1
and 2 over two paths that cross the same number of switches (5)
through the same kinds of ports — the plain up*/down* path (looping
through switch 2) and the path through one in-transit host.  Since
the test measures half-RTT and only one direction carries the ITB,
the per-ITB overhead is the difference of the two half-RTT curves
**multiplied by two**.

Paper results to match in shape: ~1.3 us per ITB, relative overhead
~10 % (short) falling to ~3 % (long), both far above the earlier
simulation estimate of ~0.5 us [2,3].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.paths import fig6_paths

__all__ = ["Fig8Result", "Fig8Row", "measure_fig8_point"]


@dataclass
class Fig8Row:
    """One message size: UD vs UD-ITB half-RTT and the ITB overhead."""

    size: int
    ud_ns: float       # half-RTT over the 5-crossing up*/down* path
    ud_itb_ns: float   # half-RTT with one ITB in the forward direction

    @property
    def overhead_ns(self) -> float:
        """Per-ITB overhead: half-RTT difference x 2 (paper protocol)."""
        return 2.0 * (self.ud_itb_ns - self.ud_ns)

    @property
    def one_way_itb_ns(self) -> float:
        """One-way latency of the ITB path, derived from the half-RTTs."""
        return self.ud_ns + self.overhead_ns

    @property
    def relative_pct(self) -> float:
        """Overhead relative to the one-way latency of the ITB path."""
        return 100.0 * self.overhead_ns / self.one_way_itb_ns


@dataclass
class Fig8Result:
    rows: list[Fig8Row] = field(default_factory=list)
    iterations: int = 100

    @property
    def mean_overhead_ns(self) -> float:
        return float(np.mean([r.overhead_ns for r in self.rows]))

    @property
    def relative_short_pct(self) -> float:
        return self.rows[0].relative_pct

    @property
    def relative_long_pct(self) -> float:
        return self.rows[-1].relative_pct


def _measure(route_ab, size: int, iterations: int,
             timings: Optional[Timings], seed: int,
             build: Callable = build_network) -> float:
    config = NetworkConfig(firmware="itb", routing="updown", seed=seed)
    if timings is not None:
        config.timings = timings
    net = build("fig6", config=config)
    paths = fig6_paths(net.topo, net.roles)
    chosen = paths.ud5 if route_ab == "ud5" else paths.itb5
    result = net.ping_pong(
        "host1", "host2", size=size, iterations=iterations,
        route_ab=chosen, route_ba=paths.rev2,
    )
    return result.mean_ns


def measure_fig8_point(size: int, iterations: int,
                       timings: Optional[Timings], seed: int,
                       build: Callable = build_network) -> Fig8Row:
    """One independent Figure 8 point: both paths at one size.

    Both series run the ITB-modified firmware (as on the real testbed
    — the firmware is installed on all NICs; only the path differs)
    with identical seeds, so the delta isolates the ejection +
    re-injection cost.
    """
    ud = _measure("ud5", size, iterations, timings, seed, build)
    ud_itb = _measure("itb5", size, iterations, timings, seed, build)
    return Fig8Row(size=size, ud_ns=ud, ud_itb_ns=ud_itb)

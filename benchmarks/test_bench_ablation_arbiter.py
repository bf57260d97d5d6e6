"""Benchmark: EXP-A4 — explicit LANai SRAM-arbitration modeling.

The paper's Section 3 describes the LANai memory system: two accesses
per cycle, granted host-bus > recv DMA > send DMA > processor.  Our
default timing model absorbs average contention into the calibrated
firmware cycle counts; this ablation turns the explicit arbiter on
and reports how much the per-ITB cost grows when the forward code has
to share SRAM with the in-transit packet still streaming in.
"""

from __future__ import annotations

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.paths import fig6_paths
from repro.harness.report import format_table


def _overhead(contention: bool, size: int, iterations: int) -> float:
    def net():
        return build_network("fig6", config=NetworkConfig(
            firmware="itb", routing="updown",
            timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
            model_memory_contention=contention,
        ))

    n1, n2 = net(), net()
    paths = fig6_paths(n1.topo, n1.roles)
    ud = n1.ping_pong("host1", "host2", size=size, iterations=iterations,
                      route_ab=paths.ud5, route_ba=paths.rev2)
    itb = n2.ping_pong("host1", "host2", size=size, iterations=iterations,
                       route_ab=paths.itb5, route_ba=paths.rev2)
    return 2.0 * (itb.mean_ns - ud.mean_ns)


def test_bench_ablation_arbiter(scale):
    def run():
        return {
            False: _overhead(False, 256, scale["iterations"]),
            True: _overhead(True, 256, scale["iterations"]),
        }

    results = run()

    print()
    print(format_table(
        ["SRAM arbitration", "per-ITB overhead (ns)"],
        [
            ("folded into calibrated cycles (default)", results[False]),
            ("modeled explicitly (Fig. 2 priorities)", results[True]),
        ],
        title="EXP-A4 — LANai memory-contention modeling",
        float_fmt="{:.0f}",
    ))

    # Shape: contention inflates the firmware component (the Early-Recv
    # handler runs while the recv DMA streams), bounded by the 4x
    # starvation floor of the arbitration model.
    assert results[True] > results[False]
    assert results[True] < results[False] * 4.0

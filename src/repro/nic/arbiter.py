"""LANai local-memory arbitration (paper Figure 2 / Section 3).

The LANai's SRAM serves at most **two memory accesses per clock
cycle**, granted by fixed priority: host I/O bus first, then the
packet receive DMA, then the packet send DMA, and the on-chip RISC
processor last.  The processor itself wants up to two accesses per
cycle (instruction + data), so firmware slows down while DMA engines
stream — a second-order effect the paper's calibrated cycle counts
absorb, and which this module makes explicit so its magnitude can be
ablated (see ``benchmarks/test_bench_ablation_arbiter.py``).

Model
-----
Each requester has a demand in accesses/cycle:

* host I/O bus (host DMA active):   1.0
* packet receive DMA active:        1.0
* packet send DMA active:           1.0
* processor:                        2.0 (always, while executing)

Grants fill the 2.0-accesses/cycle budget in priority order; the
processor receives whatever remains.  Firmware code that would take
``n`` cycles uninterfered takes ``n * (2.0 / granted)`` cycles under
contention.  With all three DMAs active the processor is fully
starved; we clamp its grant to a floor (it still wins cycles when a
DMA pauses between bus bursts) — the floor is the one free parameter,
set so the modeled slowdown stays within the envelope Myricom's LANai
documentation describes (roughly 2-4x under full streaming).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryArbiter"]

#: SRAM bandwidth in accesses per clock cycle.
_BUDGET = 2.0
#: Demand of each DMA engine while active (accesses/cycle).
_DMA_DEMAND = 1.0
#: Processor demand (instruction + data fetch).
_CPU_DEMAND = 2.0
#: Fraction of cycles the processor is guaranteed even under full DMA
#: load (bus turnaround / burst gaps).
_CPU_FLOOR = 0.25
#: Engine name -> the field counting its active bursts.
_ENGINE_FIELDS = {
    "host_dma": "host_dma_active",
    "recv_dma": "recv_dma_active",
    "send_dma": "send_dma_active",
}


@dataclass
class MemoryArbiter:
    """Tracks active engines and scales firmware instruction time.

    One per NIC.  Engines register activity with ``engine_start`` /
    ``engine_stop``; firmware asks :meth:`cpu_scale` for the current
    instruction-time multiplier.

    The model is quasi-static: the multiplier reflects the engines
    active *at the moment the firmware code runs*, which is accurate
    for the sub-microsecond code bursts the MCP executes.
    """

    host_dma_active: int = 0
    recv_dma_active: int = 0
    send_dma_active: int = 0
    enabled: bool = True

    # -- engine bookkeeping ------------------------------------------------

    def engine_start(self, engine: str) -> None:
        """An engine began a transfer burst (host/recv/send DMA)."""
        self._bump(engine, +1)

    def engine_stop(self, engine: str) -> None:
        """An engine finished its burst."""
        self._bump(engine, -1)

    def _bump(self, engine: str, delta: int) -> None:
        attr = _ENGINE_FIELDS.get(engine)
        if attr is None:
            raise ValueError(f"unknown engine {engine!r}")
        value = getattr(self, attr) + delta
        if value < 0:
            raise ValueError(f"engine {engine!r} stopped more than started")
        setattr(self, attr, value)

    # -- the arbitration model ----------------------------------------------

    def granted_to_cpu(self) -> float:
        """Accesses/cycle left for the processor right now."""
        remaining = _BUDGET
        for active in (self.host_dma_active, self.recv_dma_active,
                       self.send_dma_active):
            if active > 0:
                remaining -= _DMA_DEMAND
        remaining = max(remaining, 0.0)
        # Burst gaps guarantee the processor a floor share.
        floor = _CPU_DEMAND * _CPU_FLOOR
        return max(remaining, floor)

    def cpu_scale(self) -> float:
        """Multiplier for firmware instruction time (>= 1.0)."""
        if not self.enabled:
            return 1.0
        granted = min(self.granted_to_cpu(), _CPU_DEMAND)
        return _CPU_DEMAND / granted

    def scaled(self, ns: float) -> float:
        """Firmware time ``ns`` adjusted for current contention."""
        return ns * self.cpu_scale()

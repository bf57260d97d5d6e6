"""The LANai NIC: engines, buffers, and per-NIC statistics.

The LANai chip (paper Figure 2) contains a network interface fed by
two packet DMAs (send and receive), one **host DMA** that moves data
across the PCI bus, and a 32-bit RISC processor running the MCP.  The
host DMA is a single engine — send-side (SDMA) and receive-side (RDMA)
transfers contend for it, which this model preserves by giving the NIC
one :class:`~repro.sim.resources.Resource` for both directions.

The firmware object attached to a NIC implements all control flow; the
NIC itself only owns the physical engines, the receive buffers, and
counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.core.timings import Timings
from repro.mcp.buffers import BufferPool, FixedBuffers
from repro.network.fabric import Fabric
from repro.nic.arbiter import MemoryArbiter
from repro.routing.tables import RouteTable
from repro.sim.engine import Simulator
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.mcp.firmware import Firmware

__all__ = ["Nic", "NicStats"]


@dataclass
class NicStats:
    """Per-NIC counters accumulated across a run."""

    packets_sent: int = 0
    packets_received: int = 0
    packets_forwarded: int = 0     # in-transit packets re-injected
    packets_dropped_unknown: int = 0  # unknown type (orig fw sees ITB tag)
    packets_flushed: int = 0       # buffer-pool overflow flushes
    bytes_sent: int = 0
    bytes_received: int = 0
    itb_immediate: int = 0         # re-injections started by Recv machine
    itb_pending: int = 0           # re-injections deferred (send busy)
    recv_blocked_ns: float = 0.0   # wire time stalled waiting for a buffer
    packets_lost_in_flight: int = 0  # worms cut by a dynamic link fault


class Nic:
    """One host's network interface card.

    Parameters
    ----------
    sim, fabric, timings:
        Simulation context (fabric provides the host's channels).
    host:
        Host node id in the topology.
    recv_buffers:
        A :class:`FixedBuffers` (stock GM: two slots) or
        :class:`BufferPool` (the paper's proposed extension).
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        timings: Timings,
        host: int,
        recv_buffers: Optional[Union[FixedBuffers, BufferPool]] = None,
        model_memory_contention: bool = False,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.timings = timings
        self.host = host
        self.name = fabric.topo.node_name(host)
        self.recv_buffers = recv_buffers or FixedBuffers(
            n_slots=timings.mcp_buffers, name=f"recvq[{self.name}]"
        )
        self.stats = NicStats()
        # SRAM arbitration model (paper Figure 2).  Disabled by
        # default: the calibrated cycle counts in Timings already
        # absorb average contention; enabling it is an ablation.
        self.arbiter = MemoryArbiter(enabled=model_memory_contention)
        # The single host-DMA engine (shared by SDMA and RDMA paths).
        self.host_dma = Resource(sim, capacity=1, name=f"hostdma[{self.name}]")
        # Route table stamped by the mapper.
        self.route_table: Optional[RouteTable] = None
        # Firmware, attached after construction (it needs the NIC).
        self.firmware: Optional["Firmware"] = None
        # Upward delivery: set by the GM host layer.
        self.deliver_up: Optional[Callable] = None
        # Telemetry registry, attached by repro.obs.instrument_network;
        # when present every emit() also publishes a labeled counter.
        self.metrics = None

    # ------------------------------------------------------------------

    def attach_firmware(self, firmware: "Firmware") -> None:
        """Bind the MCP that drives this NIC (once, at build time)."""
        self.firmware = firmware

    def emit(self, kind: str) -> None:
        """Count one firmware event of this NIC.

        When a metrics registry is attached, the event is counted as
        ``nic_mcp_events_total{component=..., kind=...}``; without one
        it is a no-op.
        """
        if self.metrics is not None:
            self.metrics.counter(
                "nic_mcp_events_total", component=f"nic[{self.name}]",
                help="firmware emit() events by kind",
                labels={"kind": kind},
            ).inc()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fw = self.firmware.name if self.firmware else "none"
        return f"<Nic {self.name} fw={fw}>"

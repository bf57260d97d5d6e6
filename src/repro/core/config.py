"""Network configuration for the builder."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.core.timings import Timings

__all__ = ["FirmwareKind", "NetworkConfig", "RoutingKind"]


class FirmwareKind(str, Enum):
    """Which MCP runs on the NICs."""

    ORIGINAL = "original"   # stock GM-1.2pre16
    ITB = "itb"             # the paper's modified MCP


class RoutingKind(str, Enum):
    """Which routes the mapper stamps.

    ``MINIMAL`` stamps unrestricted shortest paths — not deadlock-free
    by itself on cyclic fabrics; pair it with escape lanes
    (``lanes >= 2, lane_policy="escape"``) for the virtual-channel
    alternative the ``vc-study`` experiment measures.
    """

    UPDOWN = "updown"
    ITB = "itb"
    MINIMAL = "minimal"


@dataclass
class NetworkConfig:
    """Everything needed to instantiate a simulated installation.

    Attributes
    ----------
    firmware:
        Firmware on every NIC (per-host overrides via
        ``firmware_overrides``; the paper runs the same MCP everywhere).
    routing:
        Mapper policy for the stamped route tables.
    timings:
        Timing model (derive ablation variants via
        :meth:`Timings.with_overrides`).
    reliable:
        GM reliability layer (acks + retransmit).  Off by default: the
        paper's latency tests measure the data path; turn on for
        buffer-pool flush experiments.
    recv_buffer_kind / pool_bytes:
        ``"fixed"`` = stock two-buffer queues; ``"pool"`` = the
        proposed circular buffer pool of ``pool_bytes``.
    seed:
        Master seed for all host-noise RNGs.
    lanes / lane_policy:
        Virtual-channel lanes per link direction and the lane-selection
        policy (``"fixed"``, ``"roundrobin"``, ``"escape"`` — see
        :mod:`repro.network.lanes`).  The default single lane is the
        stock Myrinet switch the paper assumes.
    """

    firmware: FirmwareKind = FirmwareKind.ITB
    routing: RoutingKind = RoutingKind.ITB
    timings: Timings = field(default_factory=Timings)
    reliable: bool = False
    recv_buffer_kind: str = "fixed"
    pool_bytes: int = 64 * 1024
    seed: int = 2001
    root: Optional[int] = None
    firmware_overrides: dict = field(default_factory=dict)
    #: Model LANai SRAM arbitration explicitly (paper Figure 2's
    #: priority scheme).  Off by default: the calibrated firmware
    #: cycle counts in :class:`Timings` absorb average contention;
    #: turning it on is the EXP-A4 ablation.
    model_memory_contention: bool = False
    lanes: int = 1
    lane_policy: str = "fixed"

    def __post_init__(self) -> None:
        self.firmware = FirmwareKind(self.firmware)
        self.routing = RoutingKind(self.routing)
        if self.recv_buffer_kind not in ("fixed", "pool"):
            raise ValueError(
                "recv_buffer_kind must be 'fixed' or 'pool',"
                f" got {self.recv_buffer_kind!r}"
            )
        if self.lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {self.lanes}")
        if self.lane_policy not in ("fixed", "roundrobin", "escape"):
            raise ValueError(
                "lane_policy must be 'fixed', 'roundrobin', or"
                f" 'escape', got {self.lane_policy!r}"
            )

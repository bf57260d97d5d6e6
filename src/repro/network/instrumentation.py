"""Channel-utilization view.

The paper's introduction names three up*/down* pathologies: non-minimal
routing, **unbalanced traffic** ("these routings tend to saturate the
zone near the root switch"), and wormhole contention.  Route-counting
(EXP-F1) shows the imbalance statically; this module measures it
*dynamically*: per-channel busy time and packet counts observed while
real traffic runs, plus summary statistics (max/mean link load,
Jain's fairness index, root-adjacent concentration).

Every channel lane counts its own grants and busy time
(:class:`~repro.sim.resources.Resource`); :class:`FabricUsage` is a
view over those counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from repro.core.builder import BuiltNetwork
    from repro.sim.resources import Resource

__all__ = ["ChannelUsage", "FabricUsage"]


class ChannelUsage:
    """Observed load on one directed channel (one lane of it when the
    fabric runs multiple lanes — the key then carries the lane index),
    counted from the creation of the :class:`FabricUsage` that holds it.
    """

    __slots__ = ("key", "from_node", "to_node", "_res", "_grants0",
                 "_busy0")

    def __init__(self, key: tuple, from_node: int, to_node: int,
                 res: "Resource") -> None:
        self.key = key
        self.from_node = from_node
        self.to_node = to_node
        self._res = res
        self._grants0 = res.grants
        self._busy0 = res.busy_ns

    @property
    def packets(self) -> int:
        """Holds granted on this lane since the view was created."""
        return self._res.grants - self._grants0

    @property
    def busy_ns(self) -> float:
        """Length of the holds released since the view was created."""
        return self._res.busy_ns - self._busy0

    def utilization(self, duration_ns: float) -> float:
        """Busy fraction over an observation window."""
        return self.busy_ns / duration_ns if duration_ns > 0 else 0.0


class FabricUsage:
    """Usage of every fabric (switch-to-switch) channel lane.

    Creating one records each lane's counters, so the view counts the
    grants made and the holds released from then on; it can be created
    at any time, before or during traffic.  A hold already open at
    creation counts in full when it is released.  Host NIC cables are
    excluded — the balance question is about the switch fabric.  On a
    single-lane fabric channels are keyed by the 2-tuple channel key;
    with virtual-channel lanes every lane is keyed ``(link_id,
    direction, lane)``, so lane imbalance is directly observable.
    """

    def __init__(self, net: "BuiltNetwork") -> None:
        self.net = net
        self.t_start = net.sim.now
        self.channels: dict[tuple, ChannelUsage] = {}
        topo = net.topo
        for channel in net.fabric.channels():
            link = channel.link
            if not (topo.is_switch(link.node_a)
                    and topo.is_switch(link.node_b)):
                continue
            multi = channel.n_lanes > 1
            for lane, res in enumerate(channel.lanes):
                key = channel.lane_key(lane) if multi else channel.key
                self.channels[key] = ChannelUsage(
                    key, channel.from_node, channel.to_node, res)

    # -- summary statistics -------------------------------------------------

    @property
    def observed_ns(self) -> float:
        return self.net.sim.now - self.t_start

    def loads(self) -> np.ndarray:
        """Per-channel busy time (ns), ascending order."""
        return np.array(sorted(u.busy_ns for u in self.channels.values()))

    def packet_counts(self) -> np.ndarray:
        """Per-channel packet counts, ascending order."""
        return np.array(sorted(u.packets for u in self.channels.values()))

    def max_utilization(self) -> float:
        """Busiest channel's busy fraction."""
        loads = self.loads()
        if loads.size == 0:
            return 0.0
        return float(loads.max()) / max(self.observed_ns, 1e-9)

    def jain_fairness(self) -> float:
        """Jain's index over channel busy times: 1 = perfectly even,
        1/n = all load on one channel."""
        loads = self.loads().astype(float)
        if loads.size == 0 or loads.sum() == 0:
            return 1.0
        return float(loads.sum() ** 2 / (loads.size * (loads ** 2).sum()))

    def root_concentration(self, root: Optional[int] = None) -> float:
        """Fraction of total fabric busy time carried by channels
        touching the spanning-tree root switch."""
        if root is None:
            root = self.net.orientation.root
        total = sum(u.busy_ns for u in self.channels.values())
        if total == 0:
            return 0.0
        at_root = sum(
            u.busy_ns for u in self.channels.values()
            if root in (u.from_node, u.to_node)
        )
        return at_root / total

"""GM: the host-side message layer.

GM is Myricom's message-based communication system: protected
user-level access to the NIC, reliable ordered delivery, network
mapping and route computation.  This package models the pieces the
paper's evaluation exercises:

* :class:`GmHost` — per-host API object (`gm_send` / `gm_receive`
  semantics) with message segmentation at the GM MTU and an optional
  go-back-N reliability layer (sequence numbers, acks, retransmit) —
  the mechanism that recovers packets flushed by a full in-transit
  buffer pool,
* :func:`run_mapper` — the network mapper: computes routes (up*/down*
  or ITB) and stamps route tables into every NIC's SRAM,
* :func:`discover_network` — the mapper's exploration phase: scout
  packets map the fabric before routes are computed
  (``repro discover``),
* :mod:`repro.gm.allsize` — the ``gm_allsize`` ping-pong latency test
  used for every measurement in the paper's Section 5.

Nothing above ``GmHost.send``/``receive`` is modeled: the paper
measures no application layer, only the MCP paths underneath.
"""

from repro.gm.host import GmHost, GmMessage, GmSendError
from repro.gm.mapper import run_mapper
from repro.gm.allsize import PingPongResult, ping_pong, allsize_sweep
from repro.gm.discovery import DiscoveredMap, DiscoveryError, discover_network

__all__ = [
    "DiscoveredMap",
    "DiscoveryError",
    "GmHost",
    "GmMessage",
    "GmSendError",
    "PingPongResult",
    "allsize_sweep",
    "discover_network",
    "ping_pong",
    "run_mapper",
]

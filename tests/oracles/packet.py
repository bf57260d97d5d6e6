"""Reference packet encoder: the byte-at-a-time build the MCP's header
memo and zero-payload CRC are checked against.

:func:`encode_packet` rebuilds every header from the route's ports on
each call and folds the CRC one byte at a time, exactly as
``repro.mcp.packet_format.encode_packet`` did before it memoized the
header per route object.
"""

from __future__ import annotations

from repro.mcp.packet_format import (
    TYPE_GM,
    TYPE_ITB,
    PacketFormatError,
    PacketImage,
)
from repro.routing.routes import ItbRoute, SourceRoute

__all__ = ["encode_packet", "xor_crc"]


def _route_byte(port: int) -> int:
    if not 0 <= port < 64:
        raise PacketFormatError(f"port {port} not encodable in a route byte")
    return 0x80 | port


def xor_crc(data: bytes) -> int:
    """The 1-byte XOR checksum, one byte at a time."""
    crc = 0
    for b in data:
        crc ^= b
    return crc


def encode_packet(
    route: ItbRoute | SourceRoute,
    payload: bytes | int,
    final_type: int = TYPE_GM,
) -> PacketImage:
    """Encode a packet for ``route`` from scratch (Fig. 3a or 3b)."""
    if isinstance(route, SourceRoute):
        route = ItbRoute((route,))
    if isinstance(payload, int):
        payload_bytes = bytes(payload)
    else:
        payload_bytes = bytes(payload)
    if final_type == TYPE_ITB:
        raise PacketFormatError("final type cannot be the ITB tag")

    segments = route.segments
    tail = bytes([final_type >> 8, final_type & 0xFF]) + payload_bytes
    tail += bytes([xor_crc(bytes([final_type >> 8, final_type & 0xFF])
                           + payload_bytes)])

    body = tail
    for seg in reversed(segments[1:]):
        path = bytes(_route_byte(p) for p in seg.ports)
        remaining_path_len = len(path)
        if remaining_path_len > 255:
            raise PacketFormatError("sub-path longer than 255 switches")
        stage = (bytes([TYPE_ITB >> 8, TYPE_ITB & 0xFF])
                 + bytes([remaining_path_len]) + path)
        body = stage + body
    first_path = bytes(_route_byte(p) for p in segments[0].ports)
    data = first_path + body
    return PacketImage(data=data, offset=0, payload_len=len(payload_bytes))

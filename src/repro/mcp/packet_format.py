"""Myrinet packet formats, original and ITB-extended (paper Figure 3).

Original Myrinet packet (Fig. 3a)::

    | path bytes ... | type (2B) | payload | CRC (1B) |

Each switch consumes (strips) the leading path byte to select its
output port, so the *type* field is what the destination NIC sees
first.

ITB packet (Fig. 3b) — a path through ``k`` in-transit hosts carries
``k + 1`` concatenated sub-paths, each non-final one announced by an
ITB type tag and the length of the remaining path::

    | path_0 | ITB (2B) | len (1B) | path_1 | ... | type (2B) | payload | CRC |

When the packet surfaces at an in-transit host (after the switches
consumed ``path_0``), the NIC sees ``ITB | len | path_1 | ...``: the
firmware recognizes the ITB tag within the first 4 bytes, strips the
tag + length, and re-injects the remainder — which is again a
well-formed Myrinet packet whose leading bytes are ``path_1``.

This module builds and manipulates real byte images so tests exercise
the exact header arithmetic the MCP performs.

Like the mapper writing route bytes into NIC SRAM once, a route's
header bytes (every sub-path plus its ITB stage headers) are encoded on
the route's first send and memoized in the route object's
``_packet_header`` slot; every later packet on that route only copies
them (see ``docs/ENGINE_FASTPATH.md``, "Per-packet NIC path").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.routing.routes import ItbRoute, SourceRoute

__all__ = [
    "CRC_LEN",
    "ITB_HEADER_LEN",
    "PacketFormatError",
    "PacketImage",
    "TYPE_GM",
    "TYPE_IP",
    "TYPE_ITB",
    "TYPE_LEN",
    "TYPE_MAPPING",
    "decode_header",
    "encode_packet",
]


class PacketFormatError(ValueError):
    """Raised on malformed packet images or encode errors."""


# Two-byte packet types (values assigned by Myricom upon request; the
# ITB value here is the reproduction's stand-in).
TYPE_GM = 0x5047       # 'PG' — normal GM packet
TYPE_MAPPING = 0x504D  # 'PM' — mapper packet
TYPE_IP = 0x5049       # 'PI' — encapsulated IP
TYPE_ITB = 0x4954      # 'IT' — in-transit packet

TYPE_LEN = 2
CRC_LEN = 1
#: Bytes an in-transit host strips per ITB stage: type tag + length.
ITB_HEADER_LEN = TYPE_LEN + 1

_KNOWN_TYPES = {TYPE_GM, TYPE_MAPPING, TYPE_IP, TYPE_ITB}
_ITB_TAG = bytes([TYPE_ITB >> 8, TYPE_ITB & 0xFF])


def _route_byte(port: int) -> int:
    """Myrinet routing byte for an output port.

    Real Myrinet encodes a signed port delta; an absolute port number
    (< 64, flagged) is an equivalent encoding for simulation and keeps
    the byte human-readable in hex dumps.
    """
    if not 0 <= port < 64:
        raise PacketFormatError(f"port {port} not encodable in a route byte")
    return 0x80 | port


def _decode_route_byte(byte: int) -> int:
    if not byte & 0x80:
        raise PacketFormatError(f"byte 0x{byte:02x} is not a route byte")
    return byte & 0x3F


@dataclass(frozen=True)
class PacketImage:
    """A packet's wire image plus cursor state.

    ``data`` never changes; ``offset`` advances as switches strip route
    bytes and in-transit hosts strip ITB stage headers.  ``wire_length``
    (bytes currently on the wire) is therefore ``len(data) - offset``.
    """

    data: bytes
    offset: int = 0
    #: User payload length (for bookkeeping; also recoverable by parse).
    payload_len: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.offset <= len(self.data):
            raise PacketFormatError("offset outside packet data")

    # -- views -----------------------------------------------------------

    @property
    def wire_length(self) -> int:
        return len(self.data) - self.offset

    def peek(self, n: int) -> bytes:
        """First ``n`` bytes currently on the wire."""
        return self.data[self.offset:self.offset + n]

    def leading_is_route_byte(self) -> bool:
        """Whether the next wire byte is a switch routing byte."""
        return self.wire_length > 0 and bool(self.data[self.offset] & 0x80)

    def leading_type(self) -> int:
        """The 2-byte type at the current cursor (big-endian)."""
        raw = self.peek(TYPE_LEN)
        if len(raw) < TYPE_LEN:
            raise PacketFormatError("packet too short for a type field")
        return (raw[0] << 8) | raw[1]

    def is_itb(self) -> bool:
        """Whether the leading type announces an in-transit packet."""
        return self.leading_type() == TYPE_ITB

    # -- cursor transitions ------------------------------------------------

    def strip_route_byte(self) -> tuple[int, "PacketImage"]:
        """Switch behaviour: consume the leading route byte.

        Returns ``(output_port, new_image)``.
        """
        if not self.leading_is_route_byte():
            raise PacketFormatError("leading byte is not a route byte")
        port = _decode_route_byte(self.data[self.offset])
        return port, PacketImage(self.data, self.offset + 1, self.payload_len)

    def consume_route_bytes(self, ports: Sequence[int]) -> "PacketImage":
        """Whole-segment switch behaviour in one step.

        Validates that the leading wire bytes are route bytes decoding
        to ``ports`` (in order) and strips them all — one cursor
        advance instead of one new image per hop.  The worm layer
        shares this single decode between its stepped and express
        paths.
        """
        data, pos = self.data, self.offset
        end = len(data)
        for port in ports:
            if pos >= end or not data[pos] & 0x80:
                raise PacketFormatError("leading byte is not a route byte")
            decoded = data[pos] & 0x3F
            if decoded != port:
                raise PacketFormatError(
                    f"route byte {decoded} != expected port {port}"
                )
            pos += 1
        return PacketImage(data, pos, self.payload_len)

    def strip_itb_stage(self) -> tuple[int, "PacketImage"]:
        """In-transit host behaviour: strip ``ITB | len``.

        Returns ``(remaining_path_len, new_image)`` where the new image
        begins with the next sub-path's route bytes.
        """
        if self.leading_type() != TYPE_ITB:
            raise PacketFormatError("not positioned at an ITB stage header")
        length_at = self.offset + TYPE_LEN
        if length_at >= len(self.data):
            raise PacketFormatError("truncated ITB stage header")
        remaining = self.data[length_at]
        return remaining, PacketImage(self.data, self.offset + ITB_HEADER_LEN,
                                      self.payload_len)

    def payload(self) -> bytes:
        """User payload bytes (walks the remaining header)."""
        info = decode_header(self)
        start = len(self.data) - CRC_LEN - info.payload_len
        return self.data[start:len(self.data) - CRC_LEN]

    def crc_ok(self) -> bool:
        """Check the 1-byte XOR CRC over everything after the full path.

        Myrinet recomputes the CRC at each switch as route bytes are
        stripped; a XOR-of-payload+type checksum is invariant under
        route-byte stripping, which keeps this model simple and exact.
        """
        info = decode_header(self)
        covered = self.data[len(self.data) - CRC_LEN - info.payload_len - TYPE_LEN:
                            len(self.data) - CRC_LEN]
        return _xor_fold(covered) == self.data[-1]


@dataclass(frozen=True)
class HeaderInfo:
    """Result of parsing a packet image from its current cursor."""

    #: Route bytes remaining before the next type field.
    leading_route_bytes: int
    #: Sequence of (type, route_byte_counts) stages; last stage is the
    #: final packet type with no following path.
    stages: tuple[int, ...]
    final_type: int
    payload_len: int
    n_itb_stages: int


def decode_header(image: PacketImage) -> HeaderInfo:
    """Parse the remaining header structure of ``image``.

    Walks: route bytes, then either an ITB stage (``ITB | len`` then
    more route bytes) or the final type.  Raises on malformed images.
    """
    data, pos = image.data, image.offset
    end = len(data)
    leading = 0
    while pos < end and data[pos] & 0x80:
        leading += 1
        pos += 1
    stages: list[int] = []
    n_itb = 0
    while True:
        if pos + TYPE_LEN > end:
            raise PacketFormatError("ran off packet while seeking type")
        ptype = (data[pos] << 8) | data[pos + 1]
        if ptype == TYPE_ITB:
            n_itb += 1
            stages.append(ptype)
            pos += TYPE_LEN
            if pos >= end:
                raise PacketFormatError("truncated ITB stage")
            pos += 1  # remaining-length byte
            # consume this stage's route bytes
            while pos < end and data[pos] & 0x80:
                pos += 1
            continue
        if ptype not in _KNOWN_TYPES:
            raise PacketFormatError(f"unknown packet type 0x{ptype:04x}")
        stages.append(ptype)
        payload_len = end - CRC_LEN - (pos + TYPE_LEN)
        if payload_len < 0:
            raise PacketFormatError("packet shorter than type + CRC")
        return HeaderInfo(
            leading_route_bytes=leading,
            stages=tuple(stages),
            final_type=ptype,
            payload_len=payload_len,
            n_itb_stages=n_itb,
        )


def _xor_fold(data: bytes) -> int:
    """XOR of every byte of ``data``, folded at C speed.

    The bytes become one integer whose upper and lower halves are
    XOR-ed together until a single byte is left: log2(len) big-integer
    operations instead of one Python step per byte.
    """
    width = len(data)
    value = int.from_bytes(data, "little")
    while width > 1:
        width = (width + 1) // 2
        shift = 8 * width
        value = (value >> shift) ^ (value & ((1 << shift) - 1))
    return value


def _route_header(route: ItbRoute | SourceRoute) -> bytes:
    """Every sub-path's route bytes plus the ITB stage headers between
    them: everything in front of the final type field.

    Encoded on the first call for a route object and memoized in its
    ``_packet_header`` field: a slot that takes no part in ``__init__``,
    equality, hashing or ``repr``, written past the frozen dataclass's
    ``__setattr__`` with :func:`object.__setattr__`.  Routes are
    immutable and a remap or reselection installs new route objects,
    so the memo never goes stale and dies with its route.
    """
    header = route._packet_header
    if header is None:
        segments = (route,) if isinstance(route, SourceRoute) else route.segments
        parts = [bytes([_route_byte(p) for p in segments[0].ports])]
        for seg in segments[1:]:
            path = bytes([_route_byte(p) for p in seg.ports])
            if len(path) > 255:
                raise PacketFormatError("sub-path longer than 255 switches")
            parts.append(_ITB_TAG + bytes([len(path)]) + path)
        header = b"".join(parts)
        object.__setattr__(route, "_packet_header", header)
    return header


def encode_packet(
    route: ItbRoute | SourceRoute,
    payload: bytes | int,
    final_type: int = TYPE_GM,
) -> PacketImage:
    """Encode a packet for ``route`` (Fig. 3a when it has no ITBs,
    Fig. 3b otherwise).

    ``payload`` may be real bytes or just a length (content zeros) for
    performance runs where only sizes matter.  The XOR of an all-zero
    payload is 0, so a length-only packet's CRC is the XOR of its two
    type bytes alone.
    """
    if isinstance(payload, int):
        payload_bytes = bytes(payload)
        crc = 0
    else:
        payload_bytes = bytes(payload)
        crc = _xor_fold(payload_bytes)
    if final_type == TYPE_ITB:
        raise PacketFormatError("final type cannot be the ITB tag")
    hi, lo = final_type >> 8, final_type & 0xFF
    data = b"".join((_route_header(route), bytes([hi, lo]), payload_bytes,
                     bytes([hi ^ lo ^ crc])))
    return PacketImage(data, 0, len(payload_bytes))

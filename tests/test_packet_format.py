"""Tests for the byte-level packet formats (paper Figure 3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mcp.packet_format import (
    CRC_LEN,
    ITB_HEADER_LEN,
    TYPE_GM,
    TYPE_IP,
    TYPE_ITB,
    TYPE_LEN,
    TYPE_MAPPING,
    PacketFormatError,
    PacketImage,
    decode_header,
    encode_packet,
)
from repro.routing.routes import ItbRoute, SourceRoute
from tests.oracles import packet as oracle


def plain_route(n_ports: int = 3) -> SourceRoute:
    return SourceRoute(src=100, dst=101, ports=tuple(range(n_ports)),
                       switch_path=tuple(range(n_ports)))


def two_segment_route() -> ItbRoute:
    seg1 = SourceRoute(src=100, dst=102, ports=(1, 2), switch_path=(0, 1))
    seg2 = SourceRoute(src=102, dst=101, ports=(3,), switch_path=(1,))
    return ItbRoute((seg1, seg2))


class TestOriginalFormat:
    def test_layout(self):
        """Fig 3a: path bytes | type | payload | CRC."""
        img = encode_packet(plain_route(3), b"hello")
        assert len(img.data) == 3 + TYPE_LEN + 5 + CRC_LEN
        assert img.leading_is_route_byte()

    def test_route_byte_stripping(self):
        img = encode_packet(plain_route(3), b"xy")
        for expected_port in (0, 1, 2):
            port, img = img.strip_route_byte()
            assert port == expected_port
        assert not img.leading_is_route_byte()
        assert img.leading_type() == TYPE_GM

    def test_payload_roundtrip(self):
        payload = bytes(range(64))
        img = encode_packet(plain_route(2), payload)
        _, img = img.strip_route_byte()
        _, img = img.strip_route_byte()
        assert img.payload() == payload

    def test_length_only_payload(self):
        img = encode_packet(plain_route(1), 100)
        assert img.payload_len == 100
        assert len(img.data) == 1 + TYPE_LEN + 100 + CRC_LEN

    def test_crc_validates(self):
        img = encode_packet(plain_route(2), b"data!")
        assert img.crc_ok()

    def test_crc_detects_corruption(self):
        img = encode_packet(plain_route(2), b"data!")
        corrupted = bytearray(img.data)
        corrupted[-2] ^= 0xFF  # flip payload bits
        bad = PacketImage(data=bytes(corrupted), payload_len=img.payload_len)
        assert not bad.crc_ok()

    def test_custom_type(self):
        img = encode_packet(plain_route(1), b"", final_type=TYPE_IP)
        _, img = img.strip_route_byte()
        assert img.leading_type() == TYPE_IP

    def test_itb_as_final_type_rejected(self):
        with pytest.raises(PacketFormatError):
            encode_packet(plain_route(1), b"", final_type=TYPE_ITB)


class TestItbFormat:
    def test_layout(self):
        """Fig 3b: path | ITB | len | path | type | payload | CRC."""
        route = two_segment_route()
        img = encode_packet(route, b"abc")
        expected = (2                      # first segment path
                    + ITB_HEADER_LEN       # ITB tag + remaining length
                    + 1                    # second segment path
                    + TYPE_LEN + 3 + CRC_LEN)
        assert len(img.data) == expected

    def test_transit_host_view(self):
        """After the first segment's switches strip their bytes, the
        NIC sees the ITB tag within the leading bytes."""
        route = two_segment_route()
        img = encode_packet(route, b"abc")
        _, img = img.strip_route_byte()
        _, img = img.strip_route_byte()
        assert img.is_itb()
        remaining, img = img.strip_itb_stage()
        assert remaining == 1  # one route byte left for segment 2
        # The re-injected packet is again a well-formed Myrinet packet.
        port, img = img.strip_route_byte()
        assert port == 3
        assert img.leading_type() == TYPE_GM
        assert img.payload() == b"abc"

    def test_three_segments(self):
        seg1 = SourceRoute(src=1, dst=2, ports=(0,), switch_path=(10,))
        seg2 = SourceRoute(src=2, dst=3, ports=(1, 2), switch_path=(10, 11))
        seg3 = SourceRoute(src=3, dst=4, ports=(3,), switch_path=(11,))
        img = encode_packet(ItbRoute((seg1, seg2, seg3)), b"zz")
        info = decode_header(img)
        assert info.n_itb_stages == 2
        # Walk the whole packet as switches + transit hosts would.
        _, img = img.strip_route_byte()
        _, img = img.strip_itb_stage()
        _, img = img.strip_route_byte()
        _, img = img.strip_route_byte()
        _, img = img.strip_itb_stage()
        _, img = img.strip_route_byte()
        assert img.leading_type() == TYPE_GM

    def test_strip_itb_requires_position(self):
        img = encode_packet(plain_route(2), b"q")
        with pytest.raises(PacketFormatError):
            img.strip_itb_stage()

    def test_wire_length_shrinks(self):
        route = two_segment_route()
        img = encode_packet(route, b"abcd")
        initial = img.wire_length
        _, img = img.strip_route_byte()
        assert img.wire_length == initial - 1
        _, img = img.strip_route_byte()
        _, img = img.strip_itb_stage()
        assert img.wire_length == initial - 2 - ITB_HEADER_LEN


class TestDecodeHeader:
    def test_plain_packet(self):
        img = encode_packet(plain_route(4), b"12345")
        info = decode_header(img)
        assert info.leading_route_bytes == 4
        assert info.final_type == TYPE_GM
        assert info.payload_len == 5
        assert info.n_itb_stages == 0

    def test_itb_packet(self):
        img = encode_packet(two_segment_route(), b"12")
        info = decode_header(img)
        assert info.leading_route_bytes == 2
        assert info.n_itb_stages == 1
        assert info.stages == (TYPE_ITB, TYPE_GM)

    def test_unknown_type_rejected(self):
        bad = PacketImage(data=bytes([0x00, 0x01, 0xAA]))
        with pytest.raises(PacketFormatError):
            decode_header(bad)

    def test_truncated_packet_rejected(self):
        bad = PacketImage(data=bytes([0x81]))  # route byte, nothing after
        with pytest.raises(PacketFormatError):
            decode_header(bad)


class TestValidation:
    def test_route_byte_port_bounds(self):
        big = SourceRoute(src=0, dst=1, ports=(64,), switch_path=(2,))
        with pytest.raises(PacketFormatError):
            encode_packet(big, b"")

    def test_strip_route_byte_needs_route_byte(self):
        img = encode_packet(plain_route(1), b"")
        _, img = img.strip_route_byte()
        with pytest.raises(PacketFormatError):
            img.strip_route_byte()

    def test_offset_bounds(self):
        with pytest.raises(PacketFormatError):
            PacketImage(data=b"abc", offset=5)


@given(
    n_route=st.integers(min_value=1, max_value=10),
    payload=st.binary(min_size=0, max_size=200),
)
@settings(max_examples=60)
def test_roundtrip_property_plain(n_route, payload):
    """Any plain packet survives full header consumption with its
    payload and CRC intact."""
    route = SourceRoute(src=0, dst=1, ports=tuple(range(n_route)),
                        switch_path=tuple(range(n_route)))
    img = encode_packet(route, payload)
    assert img.crc_ok()
    for expected in range(n_route):
        port, img = img.strip_route_byte()
        assert port == expected
    assert img.leading_type() == TYPE_GM
    assert img.payload() == payload
    assert img.crc_ok()


@given(
    seg_lens=st.lists(st.integers(min_value=1, max_value=5),
                      min_size=2, max_size=4),
    payload=st.binary(min_size=0, max_size=64),
)
@settings(max_examples=60)
def test_roundtrip_property_itb(seg_lens, payload):
    """Any multi-segment packet walks cleanly through all its stages."""
    segs = []
    node = 0
    for n in seg_lens:
        segs.append(SourceRoute(src=node, dst=node + 1,
                                ports=tuple(range(n)),
                                switch_path=tuple(range(n))))
        node += 1
    img = encode_packet(ItbRoute(tuple(segs)), payload)
    for i, n in enumerate(seg_lens):
        for expected in range(n):
            port, img = img.strip_route_byte()
            assert port == expected
        if i < len(seg_lens) - 1:
            assert img.is_itb()
            remaining, img = img.strip_itb_stage()
            assert remaining == seg_lens[i + 1]
    assert img.leading_type() == TYPE_GM
    assert img.payload() == payload


def _route_from(seg_ports) -> ItbRoute:
    """An ITB route whose segments carry the given port tuples."""
    return ItbRoute(tuple(
        SourceRoute(src=i, dst=i + 1, ports=ports,
                    switch_path=tuple(range(len(ports))))
        for i, ports in enumerate(seg_ports)))


def _same_image(got: PacketImage, want: PacketImage) -> bool:
    return (got.data, got.offset, got.payload_len) == (
        want.data, want.offset, want.payload_len)


_SEGMENTS = st.lists(st.integers(0, 63), min_size=1, max_size=6).map(tuple)


@given(
    seg_ports=st.lists(_SEGMENTS, min_size=1, max_size=4),
    final_type=st.sampled_from([TYPE_GM, TYPE_MAPPING, TYPE_IP]),
    length=st.integers(min_value=0, max_value=4096),
    blob=st.binary(min_size=1, max_size=300).map(
        lambda b: b if any(b) else b[:-1] + b"\x01"),
    flip=st.integers(min_value=0),
)
@settings(max_examples=80)
def test_encode_matches_reference_encoder(seg_ports, final_type, length,
                                          blob, flip):
    """The memoized header and the folded CRC reproduce the byte-at-a-time
    reference image, on the first encode of a route object and on a
    second one (a memo hit), for length-only and non-zero payloads."""
    route = _route_from(seg_ports)
    for payload in (length, blob):
        want = oracle.encode_packet(route, payload, final_type=final_type)
        for _ in range(2):
            got = encode_packet(route, payload, final_type=final_type)
            assert _same_image(got, want)
            assert got.crc_ok()
    # One flipped payload byte still fails the CRC.
    img = encode_packet(route, blob, final_type=final_type)
    data = bytearray(img.data)
    data[len(data) - CRC_LEN - len(blob) + flip % len(blob)] ^= 0x5A
    assert not PacketImage(bytes(data), payload_len=len(blob)).crc_ok()


@given(
    seg_ports=st.lists(_SEGMENTS, min_size=1, max_size=4),
    bad_seg=st.integers(min_value=0),
    bad_port=st.integers(min_value=64, max_value=255),
)
@settings(max_examples=40)
def test_unencodable_routes_still_raise(seg_ports, bad_seg, bad_port):
    """A port >= 64 in any segment raises PacketFormatError on every
    encode of the route object: a failed encode is never memoized."""
    bad = list(seg_ports)
    i = bad_seg % len(bad)
    bad[i] = bad[i] + (bad_port,)
    route = _route_from(bad)
    for _ in range(2):
        with pytest.raises(PacketFormatError):
            encode_packet(route, 8)
        with pytest.raises(PacketFormatError):
            oracle.encode_packet(route, 8)


def test_sub_path_length_limit():
    """A non-first sub-path over 255 switches overflows its length byte
    and raises on every encode; the first sub-path has no length byte."""
    too_long = _route_from([(0,), (1,) * 256])
    for _ in range(2):
        with pytest.raises(PacketFormatError):
            encode_packet(too_long, 8)
    long_first = _route_from([(1,) * 256, (2,) * 255])
    assert _same_image(encode_packet(long_first, 8),
                       oracle.encode_packet(long_first, 8))

"""Wire-format and behavior-transform tests.

The SRH fixture bytes are written out by hand from the routing-header
field layout so the codec is checked against something other than
itself.
"""

import ipaddress
import struct
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from srv6bench.catalog import BehaviorId, InnerKind, catalog, traffic_requirement
from srv6bench.errors import Srv6BenchError
from srv6bench.packet import (
    ADDRESS_PLAN,
    BehaviorConfig,
    Ethernet,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    IPv4Header,
    IPv6Header,
    INNER_DST4,
    INNER_DST6,
    INNER_SRC4,
    INNER_SRC6,
    NEXT_HEADER_ETHERNET,
    NEXT_HEADER_IPV4,
    NEXT_HEADER_IPV6,
    NEXT_HEADER_NONE,
    NEXT_HEADER_ROUTING,
    PacketTemplate,
    Payload,
    SegmentRoutingHeader,
    Sid,
    SUT_MAC,
    TESTER_MAC,
    apply_behavior,
    build_test_packet,
    decode,
    encode,
    hexdump,
    satisfies,
)
from conftest import SID1, SID2


def ipv4_checksum_oracle(header: bytes) -> int:
    """Independent ones-complement sum over 16-bit words."""
    words = struct.unpack("!10H", header)
    total = sum(words)
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestSid:
    def test_text_round_trip(self):
        s = Sid.from_str("fc00:0:0:1::1")
        assert str(s) == "fc00:0:0:1::1"
        assert len(s.value) == 16

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Sid(b"\x00" * 15)


class TestSrhWireFormat:
    def test_hand_built_srh_bytes(self, end_template):
        raw = encode(end_template)
        assert len(raw) == 158
        srh = raw[54:94]
        # next header (inner IPv6), hdr ext len 2n, routing type 4,
        # segments left, last entry n-1, flags, 16-bit tag
        assert srh[:8] == bytes([41, 4, 4, 1, 1, 0, 0, 0])
        # segment list is reverse path order: final segment first
        assert srh[8:24] == SID2.value
        assert srh[24:40] == SID1.value
        # outer destination carries the active SID
        assert raw[38:54] == SID1.value

    def test_outer_headers(self, end_template):
        raw = encode(end_template)
        assert raw[12:14] == ETHERTYPE_IPV6.to_bytes(2, "big")
        assert raw[14] >> 4 == 6
        assert raw[20] == NEXT_HEADER_ROUTING
        # IPv6 payload length covers SRH + inner packet
        assert int.from_bytes(raw[18:20], "big") == 40 + 64

    @given(n=st.integers(min_value=1, max_value=8), sl=st.data())
    def test_srh_length_is_8_plus_16n(self, n, sl):
        segments = tuple(Sid(bytes([i] * 16)) for i in range(1, n + 1))
        srh = SegmentRoutingHeader(
            next_header=NEXT_HEADER_NONE,
            segments=segments,
            segments_left=sl.draw(st.integers(min_value=0, max_value=n - 1)),
        )
        t = PacketTemplate(
            (Ethernet(), IPv6Header(next_header=NEXT_HEADER_ROUTING), srh)
        )
        raw = encode(t)
        assert len(raw) == 14 + 40 + 8 + 16 * n
        assert srh.hdr_ext_len == 2 * n
        assert srh.last_entry == n - 1
        assert decode(raw) == t

    def test_segments_left_bounds(self):
        with pytest.raises(ValueError):
            SegmentRoutingHeader(
                next_header=59, segments=(SID1,), segments_left=1
            )


class TestCodecRoundTrip:
    def test_end_template(self, end_template):
        assert decode(encode(end_template)) == end_template

    def test_dt6_template(self, dt6_template):
        assert decode(encode(dt6_template)) == dt6_template

    @pytest.mark.parametrize(
        "behavior",
        [b for b in BehaviorId if b in {
            BehaviorId.H_INSERT, BehaviorId.H_ENCAPS, BehaviorId.H_ENCAPS_L2,
            BehaviorId.END, BehaviorId.END_T, BehaviorId.END_X,
            BehaviorId.END_DT4, BehaviorId.END_DT6, BehaviorId.END_DX2,
            BehaviorId.END_DX4, BehaviorId.END_DX6,
            BehaviorId.PLAIN_IPV4, BehaviorId.PLAIN_IPV6,
        }],
    )
    def test_every_measured_behavior_packet(self, behavior):
        req = traffic_requirement(behavior)
        t = build_test_packet(req, [SID1, SID2])
        assert decode(encode(t)) == t
        assert satisfies(t, req)

    def test_ipv4_checksum_matches_independent_oracle(self):
        req = traffic_requirement(BehaviorId.PLAIN_IPV4)
        raw = encode(build_test_packet(req, []))
        header = raw[14:34]
        stored = int.from_bytes(header[10:12], "big")
        zeroed = header[:10] + b"\x00\x00" + header[12:]
        assert stored == ipv4_checksum_oracle(zeroed)
        # a valid header sums to zero under the same oracle
        assert ipv4_checksum_oracle(header) == 0


class TestDecodeRejectsGarbage:
    def test_truncated_frame(self):
        with pytest.raises(Srv6BenchError, match="^truncated Ethernet header$"):
            decode(b"\x00" * 10)

    def test_truncated_ipv6(self, end_template):
        raw = encode(end_template)
        with pytest.raises(Srv6BenchError, match="^truncated IPv6 header$"):
            decode(raw[:30])

    def test_payload_length_mismatch(self, end_template):
        raw = bytearray(encode(end_template))
        raw[18] ^= 0x01
        with pytest.raises(Srv6BenchError, match="^IPv6 payload length does not match frame$"):
            decode(bytes(raw))

    def test_bad_routing_type(self, end_template):
        raw = bytearray(encode(end_template))
        raw[56] = 3  # routing type field inside the SRH
        with pytest.raises(Srv6BenchError, match="^unsupported routing type 3$"):
            decode(bytes(raw))

    def test_srh_last_entry_mismatch(self, end_template):
        raw = bytearray(encode(end_template))
        raw[58] = 5  # last entry field disagrees with hdr ext len
        with pytest.raises(Srv6BenchError, match="^SRH last entry disagrees with length$"):
            decode(bytes(raw))

    def test_corrupted_ipv4_checksum(self):
        req = traffic_requirement(BehaviorId.PLAIN_IPV4)
        raw = bytearray(encode(build_test_packet(req, [])))
        raw[24] ^= 0xFF
        with pytest.raises(Srv6BenchError, match="^bad IPv4 header checksum$"):
            decode(bytes(raw))


@pytest.mark.parametrize(
    "behavior, message",
    [
        (BehaviorId.PLAIN_IPV6, "IPv6 payload length 65536 exceeds 65535"),
        (BehaviorId.PLAIN_IPV4, "IPv4 total length 65536 exceeds 65535"),
    ],
    ids=["ipv6", "ipv4"],
)
def test_encode_rejects_a_length_field_over_65535(behavior, message):
    req = traffic_requirement(behavior)
    size = (40 if req.inner_kind is InnerKind.IPV6 else 0) + 65535
    assert len(encode(build_test_packet(replace(req, inner_packet_size=size), []))) == 14 + size
    with pytest.raises(Srv6BenchError, match=f"^{message}$"):
        encode(build_test_packet(replace(req, inner_packet_size=size + 1), []))


class TestBuildTestPacket:
    def test_end_frame_size(self, end_template):
        assert end_template.frame_size == 158

    def test_headend_encaps_frame_size(self):
        req = traffic_requirement(BehaviorId.H_ENCAPS)
        t = build_test_packet(req, [])
        assert t.frame_size == 78  # Ethernet + bare 64B inner IPv6

    def test_headend_ipv4_ethertype(self):
        req = traffic_requirement(BehaviorId.PLAIN_IPV4)
        t = build_test_packet(req, [])
        assert t.layers[0].ethertype == ETHERTYPE_IPV4

    def test_too_few_sids_rejected(self):
        req = traffic_requirement(BehaviorId.END)
        with pytest.raises(Srv6BenchError, match="^need at least 2 SIDs, got 1$"):
            build_test_packet(req, [SID1])

    def test_forbidden_segments_left_rejected(self):
        # one SID would put End's active SID last
        req = replace(traffic_requirement(BehaviorId.END), min_sids=1)
        with pytest.raises(Srv6BenchError, match="active SID must not be the last SID"):
            build_test_packet(req, [SID1])

    def test_decap_packet_sits_at_last_segment(self, dt6_template):
        srh = dt6_template.layers[2]
        assert srh.segments_left == 0

    def test_hexdump_shape(self, end_template):
        dump = hexdump(end_template)
        lines = dump.splitlines()
        assert len(lines) == 10  # 158 bytes, 16 per line
        assert lines[0].startswith("0000  ")


class TestEndpointTransforms:
    def test_end_advances_to_next_segment(self, end_template):
        out, action = apply_behavior(BehaviorId.END, end_template)
        srh = out.layers[2]
        assert srh.segments_left == 0
        assert out.layers[1].dst == SID2.value
        assert out.layers[1].hop_limit == end_template.layers[1].hop_limit - 1
        assert action.kind == "fib-lookup"
        # payload and segment list are untouched
        assert srh.segments == end_template.layers[2].segments
        assert out.layers[3:] == end_template.layers[3:]

    def test_end_at_last_segment_cannot_advance(self, dt6_template):
        with pytest.raises(Srv6BenchError, match="^segments left is already 0$"):
            apply_behavior(BehaviorId.END, dt6_template)

    def test_end_x_uses_adjacency(self, end_template):
        # the adjacency is the address plan's next hop
        _, action = apply_behavior(BehaviorId.END_X, end_template)
        assert action.kind == "xconnect"
        assert action.target == ADDRESS_PLAN["nexthop6"] == "2001:db8:0:2::2"

    def test_dt6_strips_encapsulation(self, dt6_template):
        out, action = apply_behavior(BehaviorId.END_DT6, dt6_template)
        assert isinstance(out.layers[1], IPv6Header)
        assert out.layers[1] == dt6_template.layers[3]
        assert action.target == "100"

    def test_dt6_refuses_pending_segments(self, end_template):
        with pytest.raises(Srv6BenchError, match="^decap requires the active SID to be the last SID$"):
            apply_behavior(BehaviorId.END_DT6, end_template)

    def test_dt6_refuses_ipv4_inner(self):
        req = traffic_requirement(BehaviorId.END_DT4)
        t = build_test_packet(req, [SID1, SID2])
        message = r"^inner packet is not ipv6 \(next header 4\)$"
        with pytest.raises(Srv6BenchError, match=message):
            apply_behavior(BehaviorId.END_DT6, t)

    def test_dx2_exposes_the_inner_frame(self):
        req = traffic_requirement(BehaviorId.END_DX2)
        t = build_test_packet(req, [SID1, SID2])
        out, action = apply_behavior(BehaviorId.END_DX2, t)
        assert out.layers == t.layers[3:]
        assert action.kind == "xconnect"

    def test_dx4_rewrites_ethertype(self):
        req = traffic_requirement(BehaviorId.END_DX4)
        t = build_test_packet(req, [SID1, SID2])
        out, _ = apply_behavior(BehaviorId.END_DX4, t)
        assert out.layers[0].ethertype == ETHERTYPE_IPV4
        assert isinstance(out.layers[1], IPv4Header)


class TestHeadendTransforms:
    CFG2 = BehaviorConfig(segments=(SID1, SID2))
    CFG1 = BehaviorConfig(segments=(SID1,))

    def test_insert_keeps_original_destination_as_final_segment(self):
        req = traffic_requirement(BehaviorId.H_INSERT)
        t = build_test_packet(req, [])
        orig_dst = t.layers[1].dst
        out, _ = apply_behavior(BehaviorId.H_INSERT, t, self.CFG2)
        srh = out.layers[2]
        assert srh.segments == (Sid(orig_dst), SID2, SID1)
        assert srh.segments_left == 2
        assert out.layers[1].dst == SID1.value  # first SID of the path
        assert out.layers[1].next_header == NEXT_HEADER_ROUTING

    def test_single_segment_encaps_has_no_srh(self):
        req = traffic_requirement(BehaviorId.H_ENCAPS)
        t = build_test_packet(req, [])
        out, _ = apply_behavior(BehaviorId.H_ENCAPS, t, self.CFG1)
        assert isinstance(out.layers[1], IPv6Header)
        assert out.layers[1].next_header == NEXT_HEADER_IPV6
        assert not isinstance(out.layers[2], SegmentRoutingHeader)
        assert out.layers[1].dst == SID1.value
        # the original packet rides inside untouched
        assert out.layers[2:] == t.layers[1:]

    def test_multi_segment_encaps_builds_srh(self):
        req = traffic_requirement(BehaviorId.H_ENCAPS)
        t = build_test_packet(req, [])
        out, _ = apply_behavior(BehaviorId.H_ENCAPS, t, self.CFG2)
        srh = out.layers[2]
        assert srh.segments == (SID2, SID1)
        assert srh.segments_left == 1
        assert out.layers[1].dst == SID1.value

    def test_l2_encaps_wraps_the_whole_frame(self):
        req = traffic_requirement(BehaviorId.H_ENCAPS_L2)
        t = build_test_packet(req, [])
        out, _ = apply_behavior(BehaviorId.H_ENCAPS_L2, t, self.CFG1)
        assert out.layers[2:] == t.layers
        assert out.frame_size == t.frame_size + 14 + 40

    def test_headend_without_sids_rejected(self):
        req = traffic_requirement(BehaviorId.H_ENCAPS)
        t = build_test_packet(req, [])
        with pytest.raises(Srv6BenchError, match="^headend behavior needs a SID list$"):
            apply_behavior(BehaviorId.H_ENCAPS, t, BehaviorConfig())


class TestPlainForwarding:
    def test_ipv6_decrements_hop_limit(self):
        req = traffic_requirement(BehaviorId.PLAIN_IPV6)
        t = build_test_packet(req, [])
        out, _ = apply_behavior(BehaviorId.PLAIN_IPV6, t)
        assert out.layers[1].hop_limit == t.layers[1].hop_limit - 1

    def test_ipv4_decrements_ttl(self):
        req = traffic_requirement(BehaviorId.PLAIN_IPV4)
        t = build_test_packet(req, [])
        out, _ = apply_behavior(BehaviorId.PLAIN_IPV4, t)
        assert out.layers[1].ttl == t.layers[1].ttl - 1

    def test_unimplemented_behavior_rejected(self, end_template):
        with pytest.raises(Srv6BenchError, match="^End.AD semantics are not implemented$"):
            apply_behavior(BehaviorId.END_AD, end_template)


def test_implemented_semantics_are_the_measured_set(end_template):
    # the catalog's traffic requirement is the one record of what can be
    # measured; apply_behavior must implement exactly that set
    cfg = BehaviorConfig(segments=(SID1, SID2))
    implemented = set()
    for spec in catalog():
        try:
            template = build_test_packet(traffic_requirement(spec.id), [SID1, SID2])
        except Srv6BenchError as exc:
            assert str(exc) == f"{spec.id} has no traffic specification (not measurable)"
            template = end_template
        try:
            apply_behavior(spec.id, template, cfg)
        except Srv6BenchError as exc:
            assert str(exc) == f"{spec.id} semantics are not implemented"
            continue
        implemented.add(spec.id)
    assert implemented == {s.id for s in catalog() if s.measured}


def test_encaps_then_decap_restores_inner_bytes():
    """One-segment encapsulation then a decap gives back the original
    64-byte inner packet untouched."""
    req = traffic_requirement(BehaviorId.H_ENCAPS)
    t = build_test_packet(req, [])
    inner_before = encode(t)[14:]
    encapped, _ = apply_behavior(
        BehaviorId.H_ENCAPS, t, BehaviorConfig(segments=(SID1,))
    )
    decapped, _ = apply_behavior(BehaviorId.END_DT6, encapped)
    assert encode(decapped)[14:] == inner_before


@given(
    kind=st.sampled_from(list(InnerKind)),
    size=st.integers(min_value=64, max_value=512),
)
def test_arbitrary_inner_sizes_round_trip(kind, size):
    req = traffic_requirement(BehaviorId.END)
    from dataclasses import replace

    req = replace(req, inner_kind=kind, inner_packet_size=size)
    t = build_test_packet(req, [SID1, SID2])
    assert decode(encode(t)) == t
    assert t.frame_size == 14 + 40 + 40 + size


# Hand-built stacks: next headers and ethertypes that name the layer
# after them, or any other value
NEXT_HEADERS = st.one_of(
    st.sampled_from([NEXT_HEADER_ROUTING, NEXT_HEADER_IPV6, NEXT_HEADER_IPV4, NEXT_HEADER_ETHERNET]),
    st.integers(0, 255),
)
ETHERTYPES = st.one_of(st.sampled_from([ETHERTYPE_IPV6, ETHERTYPE_IPV4]), st.integers(0, 0xFFFF))
HEADERS = {
    Ethernet: lambda draw: Ethernet(ethertype=draw(ETHERTYPES)),
    IPv6Header: lambda draw: IPv6Header(next_header=draw(NEXT_HEADERS)),
    SegmentRoutingHeader: lambda draw: SegmentRoutingHeader(
        next_header=draw(NEXT_HEADERS), segments=(SID2, SID1), segments_left=draw(st.integers(0, 1))
    ),
    IPv4Header: lambda draw: IPv4Header(protocol=draw(NEXT_HEADERS)),
}


@st.composite
def hand_built_stacks(draw):
    """Up to six layers in any order: an Ethernet header first about half
    the time, otherwise any layer or none, then headers and payloads of
    0-64 B in any nesting (an SRH anywhere, a payload mid-stack)."""
    kinds = st.sampled_from([*HEADERS, Payload])
    layers = []
    for kind in [draw(st.just(Ethernet) | kinds)] + draw(st.lists(kinds, max_size=5)):
        layers.append(Payload(draw(st.binary(max_size=64))) if kind is Payload else HEADERS[kind](draw))
    if not draw(st.integers(0, 7)):
        layers = []
    return PacketTemplate(tuple(layers))


REFUSED_STACKS = [
    pytest.param(
        (Ethernet(), IPv6Header(next_header=NEXT_HEADER_NONE), IPv6Header(next_header=NEXT_HEADER_NONE)),
        "IPv6Header next header 59 is followed by IPv6Header: decode would read a payload or nothing",
        id="none-then-ipv6",
    ),
    pytest.param(
        (Ethernet(), IPv6Header(next_header=NEXT_HEADER_ROUTING), Payload(bytes(40))),
        "IPv6Header next header 43 is followed by a payload or nothing: "
        "decode would read SegmentRoutingHeader",
        id="routing-then-payload",
    ),
    pytest.param(
        (Ethernet(ethertype=ETHERTYPE_IPV4), IPv4Header(protocol=41), IPv6Header(next_header=59)),
        "IPv4Header is followed by IPv6Header: decode would read a payload or nothing",
        id="ipv4-then-ipv6",
    ),
    pytest.param(
        (Ethernet(ethertype=0x88B5), Payload(b"")),
        "empty payload: decode gives back no payload layer",
        id="empty-payload",
    ),
    pytest.param(
        (IPv6Header(next_header=NEXT_HEADER_NONE),),
        "outermost layer must be Ethernet",
        id="no-ethernet",
    ),
    pytest.param((), "outermost layer must be Ethernet", id="empty-stack"),
    pytest.param(
        (Ethernet(), SegmentRoutingHeader(next_header=NEXT_HEADER_NONE, segments=(SID1,), segments_left=0)),
        "Ethernet ethertype 0x86dd is followed by SegmentRoutingHeader: decode would read IPv6Header",
        id="srh-after-ethernet",
    ),
    pytest.param(
        (Ethernet(), IPv6Header(next_header=NEXT_HEADER_IPV6), Payload(bytes(24)), IPv6Header(next_header=NEXT_HEADER_NONE)),
        "payload must be the innermost layer",
        id="payload-ahead-of-header",
    ),
]


@pytest.mark.parametrize("layers, message", REFUSED_STACKS)
def test_encode_refuses_a_stack_decode_cannot_give_back(layers, message):
    template = PacketTemplate(layers)  # any stack can be built
    with pytest.raises(Srv6BenchError, match=f"^{message}$"):
        encode(template)


@given(template=hand_built_stacks())
@example(template=PacketTemplate(REFUSED_STACKS[0].values[0]))
@example(template=PacketTemplate(REFUSED_STACKS[1].values[0]))
def test_encode_refuses_or_round_trips_every_hand_built_stack(template):
    try:
        raw = encode(template)
    except Srv6BenchError:
        return
    assert decode(raw) == template


def test_a_deep_stack_round_trips():
    # decode walks the frame in a loop, so 1,600 nested IPv6 headers (a
    # 64,014-byte frame) are read without recursing once per header
    chain = (IPv6Header(next_header=NEXT_HEADER_IPV6),) * 1599
    t = PacketTemplate((Ethernet(), *chain, IPv6Header(next_header=NEXT_HEADER_NONE)))
    raw = encode(t)
    assert len(raw) == 64_014
    assert decode(raw) == t


# Wire headers written from the field layouts, around the bytes they
# carry; a length, count or checksum left as None is the right one
def wire_ethernet(ethertype, body):
    return SUT_MAC + TESTER_MAC + ethertype.to_bytes(2, "big") + body


def wire_ipv6(next_header, body, length=None):
    length = len(body) if length is None else length
    return struct.pack("!IHBB", 6 << 28, length, next_header, 64) + INNER_SRC6 + INNER_DST6 + body


def wire_srh(next_header, body, sids=(SID1,), segments_left=0, hdr_ext_len=None, last_entry=None):
    hdr_ext_len = 2 * len(sids) if hdr_ext_len is None else hdr_ext_len
    last_entry = len(sids) - 1 if last_entry is None else last_entry
    fixed = bytes([next_header, hdr_ext_len, 4, segments_left, last_entry, 0, 0, 0])
    return fixed + b"".join(sid.value for sid in sids) + body


def wire_ipv4(protocol, body, length=None, flags_fragment=0, identification=0, checksum=None):
    length = 20 + len(body) if length is None else length
    fields = 0x45, 0, length, identification, flags_fragment, 64, protocol, 0, INNER_SRC4, INNER_DST4
    header = struct.pack("!BBHHHBBH4s4s", *fields)
    checksum = ipv4_checksum_oracle(header) if checksum is None else checksum
    return header[:10] + checksum.to_bytes(2, "big") + header[12:] + body


# an SRH whose next header 43 announces a second SRH, and 1,600 nested
# IPv6 headers
SRH_AFTER_SRH = wire_ethernet(ETHERTYPE_IPV6, wire_ipv6(43, wire_srh(43, wire_srh(59, b""))))
DEEP_FRAME = b""
for _ in range(1600):
    DEEP_FRAME = wire_ipv6(NEXT_HEADER_IPV6 if DEEP_FRAME else NEXT_HEADER_NONE, DEEP_FRAME)
DEEP_FRAME = wire_ethernet(ETHERTYPE_IPV6, DEEP_FRAME)
# identification 0x63ac makes the other words sum to 0xFFFF, so a stored
# checksum of 0xFFFF also sums right, where encode writes 0
IPV4_CHECKSUM_FFFF = wire_ethernet(ETHERTYPE_IPV4, wire_ipv4(61, b"", identification=0x63AC, checksum=0xFFFF))

# the next header and ethertype that announce each wire header; 0x88b5
# (local experimental) announces a payload
ANNOUNCE = {
    "ipv6": (NEXT_HEADER_IPV6, ETHERTYPE_IPV6),
    "srh": (NEXT_HEADER_ROUTING, 0x88B5),
    "ipv4": (NEXT_HEADER_IPV4, ETHERTYPE_IPV4),
    "ethernet": (NEXT_HEADER_ETHERNET, 0x88B5),
}
UINT8, UINT16 = st.integers(0, 0xFF), st.integers(0, 0xFFFF)


@st.composite
def spliced_frames(draw):
    """Frames spliced from wire headers, inside out: any header inside
    any other (SRH after SRH, IPv4 after SRH, IPv6 chains). Each next
    header, ethertype and length field is right three times in four and
    drawn otherwise, and the frame may be cut short or get bytes
    appended."""

    def right_or(value, other):
        return value if draw(st.integers(0, 3)) < 3 else draw(other)

    frame = draw(st.binary(max_size=32))
    next_header, ethertype = NEXT_HEADER_NONE, 0x88B5
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(list(ANNOUNCE)))
        if kind == "ethernet":
            frame = wire_ethernet(right_or(ethertype, ETHERTYPES), frame)
        elif kind == "ipv6":
            frame = wire_ipv6(right_or(next_header, NEXT_HEADERS), frame, right_or(None, UINT16))
        elif kind == "srh":
            sids = (SID2, SID1)[: draw(st.integers(1, 2))]
            segments_left = draw(st.integers(0, len(sids)))
            hdr_ext_len, last_entry = right_or(None, UINT8), right_or(None, UINT8)
            frame = wire_srh(right_or(next_header, NEXT_HEADERS), frame, sids, segments_left, hdr_ext_len, last_entry)
        else:
            frame = wire_ipv4(right_or(next_header, NEXT_HEADERS), frame, right_or(None, UINT16), right_or(0, UINT16))
        next_header, ethertype = ANNOUNCE[kind]
    frame = wire_ethernet(right_or(ethertype, ETHERTYPES), frame)
    frame = frame[: right_or(len(frame), st.integers(0, len(frame)))]
    return frame + right_or(b"", st.binary(min_size=1, max_size=8))


@given(data=spliced_frames() | st.binary(max_size=200))
@example(data=SRH_AFTER_SRH)
@example(data=DEEP_FRAME)
@example(data=IPV4_CHECKSUM_FFFF)
@example(data=wire_ethernet(ETHERTYPE_IPV4, wire_ipv4(61, b"", flags_fragment=0x4000)))
def test_decode_gives_back_its_bytes_or_refuses(data):
    try:
        template = decode(data)
    except Srv6BenchError:
        return
    assert encode(template) == data


@pytest.mark.parametrize(
    "header, ethertype, field, top",
    [
        (IPv6Header, ETHERTYPE_IPV6, "traffic_class", 0xFF),
        (IPv6Header, ETHERTYPE_IPV6, "flow_label", 0xFFFFF),
        (IPv6Header, ETHERTYPE_IPV6, "hop_limit", 0xFF),
        (IPv4Header, ETHERTYPE_IPV4, "ttl", 0xFF),
        (IPv4Header, ETHERTYPE_IPV4, "tos", 0xFF),
        (IPv4Header, ETHERTYPE_IPV4, "identification", 0xFFFF),
    ],
    ids=["traffic_class", "flow_label", "hop_limit", "ttl", "tos", "identification"],
)
def test_header_fields_are_range_checked(header, ethertype, field, top):
    """A field's largest value survives the codec; one past either end
    is refused at construction instead of spilling into its neighbour."""
    t = PacketTemplate(
        (Ethernet(ethertype=ethertype), header(NEXT_HEADER_NONE, **{field: top}))
    )
    assert decode(encode(t)) == t
    for bad in (-1, top + 1):
        with pytest.raises(ValueError, match=field):
            header(NEXT_HEADER_NONE, **{field: bad})


def test_inner_destinations_lie_in_the_routed_prefixes():
    # the recipes route the plan's inner prefixes: the test traffic must
    # be addressed inside them
    prefix6 = ipaddress.IPv6Network(ADDRESS_PLAN["inner_prefix6"])
    prefix4 = ipaddress.IPv4Network(ADDRESS_PLAN["inner_prefix4"])
    assert ipaddress.IPv6Address(INNER_DST6) in prefix6
    assert ipaddress.IPv4Address(INNER_DST4) in prefix4

"""Wire-format and behavior-transform tests.

The SRH fixture bytes are written out by hand from the routing-header
field layout so the codec is checked against something other than
itself.
"""

import hashlib
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
    SID_PLAN,
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


def _edited(raw: bytes, edits: dict) -> bytes:
    """raw with the byte at each offset of edits replaced by its value."""
    data = bytearray(raw)
    for offset, value in edits.items():
        data[offset] = value
    return bytes(data)


# End's test packet: Ethernet (14 B), outer IPv6 (40 B, payload length at
# 18-19), then the SRH: hdr ext len at 55, segments left at 57, last entry at 58
END_WIRE = encode(build_test_packet(traffic_requirement(BehaviorId.END), [SID1, SID2]))
IPV4_WIRE = encode(build_test_packet(traffic_requirement(BehaviorId.PLAIN_IPV4), []))


@pytest.mark.parametrize(
    "data, message",
    [
        (_edited(END_WIRE[:58], {18: 0, 19: 4}), "truncated routing header"),
        (_edited(END_WIRE, {55: 3}), "inconsistent SRH extension length"),
        (_edited(END_WIRE, {57: 2}), "segments left exceeds last entry"),
        (_edited(END_WIRE, {55: 254, 58: 126}), "truncated SRH segment list"),
        (_edited(IPV4_WIRE, {14: 0x46}), "unsupported IPv4 version/IHL"),
    ],
    ids=["srh-truncated", "srh-odd-length", "segments-left-too-big", "sids-truncated", "ipv4-ihl"],
)
def test_decode_refuses_a_malformed_header(data, message):
    with pytest.raises(Srv6BenchError, match=f"^{message}$"):
        decode(data)


IPV6_PACKET = build_test_packet(traffic_requirement(BehaviorId.PLAIN_IPV6), [])
IPV4_PACKET = build_test_packet(traffic_requirement(BehaviorId.PLAIN_IPV4), [])


@pytest.mark.parametrize(
    "behavior, template, cfg, message",
    [
        (
            BehaviorId.H_ENCAPS, PacketTemplate((Ethernet(), Payload(b"\x00" * 46))),
            BehaviorConfig(segments=(SID1,)), "encap needs an inner IP packet",
        ),
        (BehaviorId.H_INSERT, IPV6_PACKET, BehaviorConfig(), "headend behavior needs a SID list"),
        (
            BehaviorId.H_INSERT, IPV4_PACKET, BehaviorConfig(segments=(SID1, SID2)),
            "SRH insertion needs an IPv6 packet",
        ),
        (BehaviorId.PLAIN_IPV6, IPV4_PACKET, None, "expected an IPv6 packet"),
        (BehaviorId.PLAIN_IPV4, IPV6_PACKET, None, "expected an IPv4 packet"),
    ],
    ids=["encap-no-ip", "insert-no-sids", "insert-ipv4", "plain6-on-ipv4", "plain4-on-ipv6"],
)
def test_a_transform_refuses_a_packet_it_cannot_forward(behavior, template, cfg, message):
    with pytest.raises(Srv6BenchError, match=f"^{message}$"):
        apply_behavior(behavior, template, cfg)


@pytest.mark.parametrize(
    "template, req",
    [
        # End's packet carries 2 SIDs
        (decode(END_WIRE), replace(traffic_requirement(BehaviorId.END), min_sids=3)),
        # Segments Left 0: the active SID is the last one
        (decode(_edited(END_WIRE, {57: 0})), traffic_requirement(BehaviorId.END)),
        # the SRH announces an inner IPv6 packet
        (decode(END_WIRE), replace(traffic_requirement(BehaviorId.END), inner_kind=InnerKind.IPV4)),
    ],
    ids=["too-few-sids", "active-sid-last", "wrong-inner-next-header"],
)
def test_satisfies_refuses_an_srv6_packet_short_of_the_requirement(template, req):
    # End's own packet satisfies End's requirement (test_every_measured_behavior_packet)
    assert satisfies(template, req) is False


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


# sha256 of each measured behavior's encoded test frame on the address plan,
# at inner sizes 64, 700 and 1400 B, and of the frame apply_behavior forwards
# from it. These are the only pins of forwarded bytes: the campaign digests
# see frame sizes alone, so a transform or codec change that keeps sizes
# shows here first.
OFFERED_SHA256 = {
    ("H.Insert", 64): "f8fd871091c899c2330cd5c1134c7e6e1aac55457170bdd3d2b460f4690603ae",
    ("H.Insert", 700): "d138c56db0e3817936c0ba86bf63bd0c2470673493657750ef513e11e6bf2d48",
    ("H.Insert", 1400): "27085612628cf5577a6cd90411f14c1a23f6b3b2c19f4b50eb6dd2f89b55f582",
    ("H.Encaps", 64): "f8fd871091c899c2330cd5c1134c7e6e1aac55457170bdd3d2b460f4690603ae",
    ("H.Encaps", 700): "d138c56db0e3817936c0ba86bf63bd0c2470673493657750ef513e11e6bf2d48",
    ("H.Encaps", 1400): "27085612628cf5577a6cd90411f14c1a23f6b3b2c19f4b50eb6dd2f89b55f582",
    ("H.Encaps.L2", 64): "a5bb14000a21bab68645012516371d4cfb14f1b9be19c5b930974852637d575c",
    ("H.Encaps.L2", 700): "d7e6caacfed999011b0d79d123e2f3c51db36d4a8602c67b788a2d85c3a9340d",
    ("H.Encaps.L2", 1400): "f7ee7c29ee5cc87cb5d4ab9a9ecd313f4a9a2c1e893450bc5ce7d76895339664",
    ("End", 64): "d1b60adef1d6a22b1073293ea4d46021bd7f985051cf0c11ec473eb0189eee95",
    ("End", 700): "58e79ba7672e2d64a10720b935e213aed29388227d50da541745463789d7f7dd",
    ("End", 1400): "5776c4ca1dc1c80eccf7abafc4871cded045887301b5eefee06d852c0f624f77",
    ("End.T", 64): "d1b60adef1d6a22b1073293ea4d46021bd7f985051cf0c11ec473eb0189eee95",
    ("End.T", 700): "58e79ba7672e2d64a10720b935e213aed29388227d50da541745463789d7f7dd",
    ("End.T", 1400): "5776c4ca1dc1c80eccf7abafc4871cded045887301b5eefee06d852c0f624f77",
    ("End.X", 64): "d1b60adef1d6a22b1073293ea4d46021bd7f985051cf0c11ec473eb0189eee95",
    ("End.X", 700): "58e79ba7672e2d64a10720b935e213aed29388227d50da541745463789d7f7dd",
    ("End.X", 1400): "5776c4ca1dc1c80eccf7abafc4871cded045887301b5eefee06d852c0f624f77",
    ("End.DT4", 64): "3a48e5b0155fc2dd2418ad4c2c38457f484ab051f07cb237c3c24948c1885b20",
    ("End.DT4", 700): "f0f6fb94f27b30fc3051d6fca95dc55e1c016cb45146f66b8e60c68646ad2cf5",
    ("End.DT4", 1400): "b5dd29ebebad87522c9b87632196e50a885b531ac3bca4a67bdb63e8c93411ce",
    ("End.DT6", 64): "5432850485bbcd05c4bdf88142e590f86e0991cfb6885abf50ea9e89278d754a",
    ("End.DT6", 700): "6ee96fb0287d28552e5acc2acbcbbd83bc3951d3e7b8f0eabc18f36e0fd416e5",
    ("End.DT6", 1400): "2ff6e45c3ce76585f9b3a07197b300ccc6764d20b658a922d13adcd94586052f",
    ("End.DX2", 64): "a3d329df7baa3933bda82c7a36a9f5e0ac02bb2091c4f96ed9fe497a4eaea81e",
    ("End.DX2", 700): "4c8049a097e06b866c8f3e536d45d2ff0b72d79cf88b570fc8f35b56cf54a2bb",
    ("End.DX2", 1400): "010764b0d512d6e5f9a848baa6e037f24b7c6f3aec07bad19e3a69c1365dd634",
    ("End.DX4", 64): "3a48e5b0155fc2dd2418ad4c2c38457f484ab051f07cb237c3c24948c1885b20",
    ("End.DX4", 700): "f0f6fb94f27b30fc3051d6fca95dc55e1c016cb45146f66b8e60c68646ad2cf5",
    ("End.DX4", 1400): "b5dd29ebebad87522c9b87632196e50a885b531ac3bca4a67bdb63e8c93411ce",
    ("End.DX6", 64): "5432850485bbcd05c4bdf88142e590f86e0991cfb6885abf50ea9e89278d754a",
    ("End.DX6", 700): "6ee96fb0287d28552e5acc2acbcbbd83bc3951d3e7b8f0eabc18f36e0fd416e5",
    ("End.DX6", 1400): "2ff6e45c3ce76585f9b3a07197b300ccc6764d20b658a922d13adcd94586052f",
    ("PlainIPv4", 64): "ec1a32656edcb693d3e6bd326d6283a1a92955099fbf7ee8437a284c3361e799",
    ("PlainIPv4", 700): "49db6eea267dfa3ad0dda068b0bb2889251c913635bcec2bc1fd1fbbca4871dd",
    ("PlainIPv4", 1400): "2714cb351d70f6dbceb75f50f9ba63573c367a5d2f795f01f08be10f8a42b09e",
    ("PlainIPv6", 64): "f8fd871091c899c2330cd5c1134c7e6e1aac55457170bdd3d2b460f4690603ae",
    ("PlainIPv6", 700): "d138c56db0e3817936c0ba86bf63bd0c2470673493657750ef513e11e6bf2d48",
    ("PlainIPv6", 1400): "27085612628cf5577a6cd90411f14c1a23f6b3b2c19f4b50eb6dd2f89b55f582",
}
FORWARDED_SHA256 = {
    ("H.Insert", 64): "65409816cb27c17e5fbe3819c44dfafb5b6ac84f5c51865d70a1a2e4c321cffa",
    ("H.Insert", 700): "242bf9ecf7fcbd29e3642fcd3e297a5bfd36ebac243af740780af1186bdf1d95",
    ("H.Insert", 1400): "c2fd8cbf8bbe4f2e63149424c3cc42aa29ec02b1195aef9c7aab7f63a83a1b73",
    ("H.Encaps", 64): "0231c33834256775b979d2d585a5db63f7c9548ae6c9d781a190b28d235f4cbd",
    ("H.Encaps", 700): "ac4d6b55137b0407458b414a52ab6da73d78ece5e284307edabd4778419f36c6",
    ("H.Encaps", 1400): "3dafe47802c68d7c7f4ab93cc88bd3e54c556896e25990769cd70028aaa5e1df",
    ("H.Encaps.L2", 64): "a933eaa6a7f1e727c8c003a7b250dffc4e5bfe97feba0f81a7c1901938c0ca33",
    ("H.Encaps.L2", 700): "36103a42a791dd876613c039b3d3ba5eb730cb32c0193dbeb69396c0901d1d9f",
    ("H.Encaps.L2", 1400): "047db7bbd3781a026bc1a6cc0b8c56d145f575f596e07580cbf899ad4b54843c",
    ("End", 64): "f46b4280c0d7d9d16c7e76d3bacb359a0650237b45533e0b7dc8774204700f4f",
    ("End", 700): "5c588ee19e228f4539b1d93daa8a3d4304e782354d2951d9c3bef17bdc108e3a",
    ("End", 1400): "4a3a5c32b6369c6489e141298e2238c18d98cc65e16b1c55f1e1f3013908dd97",
    ("End.T", 64): "f46b4280c0d7d9d16c7e76d3bacb359a0650237b45533e0b7dc8774204700f4f",
    ("End.T", 700): "5c588ee19e228f4539b1d93daa8a3d4304e782354d2951d9c3bef17bdc108e3a",
    ("End.T", 1400): "4a3a5c32b6369c6489e141298e2238c18d98cc65e16b1c55f1e1f3013908dd97",
    ("End.X", 64): "f46b4280c0d7d9d16c7e76d3bacb359a0650237b45533e0b7dc8774204700f4f",
    ("End.X", 700): "5c588ee19e228f4539b1d93daa8a3d4304e782354d2951d9c3bef17bdc108e3a",
    ("End.X", 1400): "4a3a5c32b6369c6489e141298e2238c18d98cc65e16b1c55f1e1f3013908dd97",
    ("End.DT4", 64): "ec1a32656edcb693d3e6bd326d6283a1a92955099fbf7ee8437a284c3361e799",
    ("End.DT4", 700): "49db6eea267dfa3ad0dda068b0bb2889251c913635bcec2bc1fd1fbbca4871dd",
    ("End.DT4", 1400): "2714cb351d70f6dbceb75f50f9ba63573c367a5d2f795f01f08be10f8a42b09e",
    ("End.DT6", 64): "f8fd871091c899c2330cd5c1134c7e6e1aac55457170bdd3d2b460f4690603ae",
    ("End.DT6", 700): "d138c56db0e3817936c0ba86bf63bd0c2470673493657750ef513e11e6bf2d48",
    ("End.DT6", 1400): "27085612628cf5577a6cd90411f14c1a23f6b3b2c19f4b50eb6dd2f89b55f582",
    ("End.DX2", 64): "a5bb14000a21bab68645012516371d4cfb14f1b9be19c5b930974852637d575c",
    ("End.DX2", 700): "d7e6caacfed999011b0d79d123e2f3c51db36d4a8602c67b788a2d85c3a9340d",
    ("End.DX2", 1400): "f7ee7c29ee5cc87cb5d4ab9a9ecd313f4a9a2c1e893450bc5ce7d76895339664",
    ("End.DX4", 64): "ec1a32656edcb693d3e6bd326d6283a1a92955099fbf7ee8437a284c3361e799",
    ("End.DX4", 700): "49db6eea267dfa3ad0dda068b0bb2889251c913635bcec2bc1fd1fbbca4871dd",
    ("End.DX4", 1400): "2714cb351d70f6dbceb75f50f9ba63573c367a5d2f795f01f08be10f8a42b09e",
    ("End.DX6", 64): "f8fd871091c899c2330cd5c1134c7e6e1aac55457170bdd3d2b460f4690603ae",
    ("End.DX6", 700): "d138c56db0e3817936c0ba86bf63bd0c2470673493657750ef513e11e6bf2d48",
    ("End.DX6", 1400): "27085612628cf5577a6cd90411f14c1a23f6b3b2c19f4b50eb6dd2f89b55f582",
    ("PlainIPv4", 64): "43e80b8558528711c5a2c57c0c18e8aff2a55da072a969014754873409696b00",
    ("PlainIPv4", 700): "8f3b67ff95633218989bb15acee938bff5b566da3fc41285d096aec4e62fb1f6",
    ("PlainIPv4", 1400): "3ce7163aeebf7616ad2dbeab897ba87ef67bc2adb9ca267d0c6b40b86c02e3e2",
    ("PlainIPv6", 64): "50bc86fdc0a3d746d27604706f235846aa346924d83533acf74fc4c0069dacdb",
    ("PlainIPv6", 700): "70fabbd2b085c84586fddf626d6a3b4b4cf7b3d5aec5cd2f855f5c83b2bf78bd",
    ("PlainIPv6", 1400): "81b94dd7b45729974d55f84433cec14165fcd25a2b7cd9b0d6450afa7e69ea41",
}


@pytest.mark.parametrize(
    "behavior, size",
    [(s.id, size) for s in catalog() if s.measured for size in (64, 700, 1400)],
    ids=lambda v: getattr(v, "value", str(v)),
)
def test_offered_and_forwarded_bytes_are_pinned(behavior, size):
    req = replace(traffic_requirement(behavior), inner_packet_size=size)
    template = build_test_packet(req, SID_PLAN)
    forwarded, _ = apply_behavior(behavior, template)
    assert hashlib.sha256(encode(template)).hexdigest() == OFFERED_SHA256[behavior.value, size]
    assert hashlib.sha256(encode(forwarded)).hexdigest() == FORWARDED_SHA256[behavior.value, size]

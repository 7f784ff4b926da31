"""Byte-exact packet templates and SRv6 behavior transforms.

A PacketTemplate is an ordered stack of layers, outermost first:
Ethernet, IPv6, segment routing header, IPv4, inner Ethernet, payload.
Any stack can be built; encode checks the layer order, refusing a stack
that decode could not give back. decode reads one header at a time, as
the layer the header before it announces (an Ethernet header first), so
it inverts every packet encode gives.

Segment lists are stored in reverse path order: segments[0] is the final
segment and Segments Left indexes the currently active one. Advancing to
the next segment is decrement-then-index.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from .catalog import (
    BehaviorId,
    InnerKind,
    TrafficRequirement,
    lookup,
    traffic_requirement,
)
from .errors import Srv6BenchError

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD

NEXT_HEADER_ROUTING = 43
NEXT_HEADER_IPV6 = 41
NEXT_HEADER_IPV4 = 4
NEXT_HEADER_ETHERNET = 143
NEXT_HEADER_NONE = 59

SRH_ROUTING_TYPE = 4

ETHERNET_LEN = 14
IPV6_HEADER_LEN = 40
IPV4_HEADER_LEN = 20
SRH_FIXED_LEN = 8
SID_LEN = 16

DEFAULT_HOP_LIMIT = 64

# The fixed address plan: the forwarder's configuration recipes render it,
# and the test traffic and the behavior transforms are built on it.
ADDRESS_PLAN = {
    "sid1": "fc00:0:0:1::1",  # SID of the behavior under test
    "sid2": "fc00:0:0:2::1",  # next SID after the active one
    "iface_in": "eth0",
    "iface_out": "eth1",
    "nexthop6": "2001:db8:0:2::2",
    "nexthop4": "10.0.2.2",
    "table": "100",
    "inner_prefix6": "fd00:21::/64",  # holds INNER_DST6
    "inner_prefix4": "10.0.2.0/24",  # holds INNER_DST4
}
TESTER_MAC = bytes.fromhex("020000000001")
SUT_MAC = bytes.fromhex("020000000002")
INNER_SRC6 = ipaddress.IPv6Address("fd00:12::1").packed
INNER_DST6 = ipaddress.IPv6Address("fd00:21::1").packed
INNER_SRC4 = ipaddress.IPv4Address("10.0.1.1").packed
INNER_DST4 = ipaddress.IPv4Address("10.0.2.1").packed
OUTER_SRC6 = ipaddress.IPv6Address("fc00:0:0:ff::1").packed

# Filler protocol number for generated payloads (host-internal, RFC 3692
# style experimental values are avoided so dissectors stay quiet).
PROTO_PAYLOAD = 61


@dataclass(frozen=True)
class Sid:
    """A 128-bit segment identifier, textual form is IPv6 notation."""

    value: bytes

    def __post_init__(self):
        if len(self.value) != SID_LEN:
            raise ValueError("SID must be exactly 16 bytes")

    @classmethod
    def from_str(cls, text: str) -> "Sid":
        return cls(ipaddress.IPv6Address(text).packed)

    def __str__(self) -> str:
        return str(ipaddress.IPv6Address(self.value))


# the address plan's SID list, in path order
SID_PLAN = (Sid.from_str(ADDRESS_PLAN["sid1"]), Sid.from_str(ADDRESS_PLAN["sid2"]))


@dataclass(frozen=True)
class Ethernet:
    """An Ethernet II header."""

    dst: bytes = SUT_MAC
    src: bytes = TESTER_MAC
    ethertype: int = ETHERTYPE_IPV6

    def __post_init__(self):
        if len(self.dst) != 6 or len(self.src) != 6:
            raise ValueError("MAC addresses must be 6 bytes")


@dataclass(frozen=True)
class IPv6Header:
    """A fixed 40-byte IPv6 header; the payload length is computed on encode."""

    next_header: int
    src: bytes = INNER_SRC6
    dst: bytes = INNER_DST6
    traffic_class: int = 0
    flow_label: int = 0
    hop_limit: int = DEFAULT_HOP_LIMIT

    def __post_init__(self):
        if len(self.src) != 16 or len(self.dst) != 16:
            raise ValueError("IPv6 addresses must be 16 bytes")
        if not (0 <= self.traffic_class <= 0xFF and 0 <= self.hop_limit <= 0xFF):
            raise ValueError("traffic_class and hop_limit must be in 0..255")
        if not 0 <= self.flow_label <= 0xFFFFF:
            raise ValueError("flow_label must be in 0..2^20-1")


@dataclass(frozen=True)
class SegmentRoutingHeader:
    """IPv6 routing extension header (routing type 4) carrying the SID list.

    hdr_ext_len and last_entry are derived from the segment count on
    encode: 2*n and n-1 respectively, for an encoded length of 8 + 16*n.
    """

    next_header: int
    segments: tuple[Sid, ...]
    segments_left: int
    flags: int = 0
    tag: int = 0

    def __post_init__(self):
        if not self.segments:
            raise ValueError("SRH needs at least one segment")
        if not 0 <= self.segments_left <= self.last_entry:
            raise ValueError("segments_left out of range")

    @property
    def hdr_ext_len(self) -> int:
        return 2 * len(self.segments)

    @property
    def last_entry(self) -> int:
        return len(self.segments) - 1

    @property
    def active_sid(self) -> Sid:
        return self.segments[self.segments_left]


@dataclass(frozen=True)
class IPv4Header:
    """A 20-byte IPv4 header without options; length and checksum are computed on encode."""

    protocol: int
    src: bytes = INNER_SRC4
    dst: bytes = INNER_DST4
    ttl: int = DEFAULT_HOP_LIMIT
    tos: int = 0
    identification: int = 0

    def __post_init__(self):
        if len(self.src) != 4 or len(self.dst) != 4:
            raise ValueError("IPv4 addresses must be 4 bytes")
        if not (0 <= self.ttl <= 0xFF and 0 <= self.tos <= 0xFF):
            raise ValueError("ttl and tos must be in 0..255")
        if not 0 <= self.identification <= 0xFFFF:
            raise ValueError("identification must be in 0..65535")


@dataclass(frozen=True)
class Payload:
    """The innermost bytes of a packet."""

    data: bytes


Layer = Union[Ethernet, IPv6Header, SegmentRoutingHeader, IPv4Header, Payload]

_LAYER_LEN = {
    Ethernet: ETHERNET_LEN,
    IPv6Header: IPV6_HEADER_LEN,
    IPv4Header: IPV4_HEADER_LEN,
}


# next header -> the layer it announces; every other next header, and an
# IPv4 header, announces a payload or nothing
_NEXT_LAYER = {
    NEXT_HEADER_ROUTING: SegmentRoutingHeader,
    NEXT_HEADER_IPV6: IPv6Header,
    NEXT_HEADER_IPV4: IPv4Header,
    NEXT_HEADER_ETHERNET: Ethernet,
}
# ethertype -> the layer it announces, likewise
_ETHERTYPE_LAYER = {ETHERTYPE_IPV6: IPv6Header, ETHERTYPE_IPV4: IPv4Header}


def _layer_len(layer: Layer) -> int:
    if isinstance(layer, SegmentRoutingHeader):
        return SRH_FIXED_LEN + SID_LEN * len(layer.segments)
    if isinstance(layer, Payload):
        return len(layer.data)
    return _LAYER_LEN[type(layer)]


@dataclass(frozen=True)
class PacketTemplate:
    """An immutable, fully specified test packet."""

    layers: tuple[Layer, ...]

    @property
    def frame_size(self) -> int:
        return sum(_layer_len(layer) for layer in self.layers)


# ---------------------------------------------------------------------------
# codec


def _ipv4_checksum(header: bytes) -> int:
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) | header[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _refuse(header: str, announced: type, after: type) -> None:
    def name(layer: type) -> str:
        return "a payload or nothing" if layer is Payload else layer.__name__

    raise Srv6BenchError(
        f"{header} is followed by {name(after)}: decode would read {name(announced)}"
    )


def encode(template: PacketTemplate) -> bytes:
    """Serialize a template to wire bytes. Length and checksum fields are
    computed here, never stored on the template. A stack that does not
    start with Ethernet, a layer other than the one its header's next
    header or ethertype announces, or a payload that is empty or not the
    innermost layer is refused: decode would give back a different
    template."""
    body = b""
    after = Payload  # the class of the layer inside this one; Payload for none
    for layer in reversed(template.layers):
        if isinstance(layer, Payload):
            if body:
                raise Srv6BenchError("payload must be the innermost layer")
            if not layer.data:
                raise Srv6BenchError("empty payload: decode gives back no payload layer")
            body = layer.data
        elif isinstance(layer, SegmentRoutingHeader):
            announced = _NEXT_LAYER.get(layer.next_header, Payload)
            if announced is not after:
                _refuse(f"SegmentRoutingHeader next header {layer.next_header}", announced, after)
            hdr = bytes(
                [
                    layer.next_header,
                    layer.hdr_ext_len,
                    SRH_ROUTING_TYPE,
                    layer.segments_left,
                    layer.last_entry,
                    layer.flags,
                ]
            ) + layer.tag.to_bytes(2, "big")
            hdr += b"".join(sid.value for sid in layer.segments)
            body = hdr + body
        elif isinstance(layer, IPv6Header):
            announced = _NEXT_LAYER.get(layer.next_header, Payload)
            if announced is not after:
                _refuse(f"IPv6Header next header {layer.next_header}", announced, after)
            if len(body) > 0xFFFF:
                raise Srv6BenchError(f"IPv6 payload length {len(body)} exceeds 65535")
            word0 = (6 << 28) | (layer.traffic_class << 20) | layer.flow_label
            hdr = (
                word0.to_bytes(4, "big")
                + len(body).to_bytes(2, "big")
                + bytes([layer.next_header, layer.hop_limit])
                + layer.src
                + layer.dst
            )
            body = hdr + body
        elif isinstance(layer, IPv4Header):
            if after is not Payload:
                _refuse("IPv4Header", Payload, after)
            total_length = IPV4_HEADER_LEN + len(body)
            if total_length > 0xFFFF:
                raise Srv6BenchError(f"IPv4 total length {total_length} exceeds 65535")
            hdr = bytearray(20)
            hdr[0] = (4 << 4) | 5
            hdr[1] = layer.tos
            hdr[2:4] = total_length.to_bytes(2, "big")
            hdr[4:6] = layer.identification.to_bytes(2, "big")
            hdr[6:8] = b"\x00\x00"
            hdr[8] = layer.ttl
            hdr[9] = layer.protocol
            hdr[12:16] = layer.src
            hdr[16:20] = layer.dst
            hdr[10:12] = _ipv4_checksum(bytes(hdr)).to_bytes(2, "big")
            body = bytes(hdr) + body
        elif isinstance(layer, Ethernet):
            announced = _ETHERTYPE_LAYER.get(layer.ethertype, Payload)
            if announced is not after:
                _refuse(f"Ethernet ethertype 0x{layer.ethertype:04x}", announced, after)
            body = layer.dst + layer.src + layer.ethertype.to_bytes(2, "big") + body
        else:
            raise TypeError(f"unknown layer type: {type(layer).__name__}")
        after = type(layer)
    if after is not Ethernet:
        raise Srv6BenchError("outermost layer must be Ethernet")
    return body


def _decode_ipv6(data: bytes) -> tuple[Layer, bytes, type]:
    if len(data) < IPV6_HEADER_LEN:
        raise Srv6BenchError("truncated IPv6 header")
    word0 = int.from_bytes(data[0:4], "big")
    if word0 >> 28 != 6:
        raise Srv6BenchError("IPv6 version field is not 6")
    payload_length = int.from_bytes(data[4:6], "big")
    next_header = data[6]
    rest = data[IPV6_HEADER_LEN:]
    if payload_length != len(rest):
        raise Srv6BenchError("IPv6 payload length does not match frame")
    header = IPv6Header(
        next_header=next_header,
        src=data[8:24],
        dst=data[24:40],
        traffic_class=(word0 >> 20) & 0xFF,
        flow_label=word0 & 0xFFFFF,
        hop_limit=data[7],
    )
    return header, rest, _NEXT_LAYER.get(next_header, Payload)


def _decode_srh(data: bytes) -> tuple[Layer, bytes, type]:
    if len(data) < SRH_FIXED_LEN:
        raise Srv6BenchError("truncated routing header")
    next_header, hdr_ext_len, routing_type, segments_left, last_entry, flags = data[:6]
    if routing_type != SRH_ROUTING_TYPE:
        raise Srv6BenchError(f"unsupported routing type {routing_type}")
    if hdr_ext_len % 2 != 0 or hdr_ext_len == 0:
        raise Srv6BenchError("inconsistent SRH extension length")
    n = hdr_ext_len // 2
    total = SRH_FIXED_LEN + SID_LEN * n
    if last_entry != n - 1:
        raise Srv6BenchError("SRH last entry disagrees with length")
    if segments_left > last_entry:
        raise Srv6BenchError("segments left exceeds last entry")
    if len(data) < total:
        raise Srv6BenchError("truncated SRH segment list")
    tag = int.from_bytes(data[6:8], "big")
    segments = tuple(
        Sid(data[SRH_FIXED_LEN + i * SID_LEN : SRH_FIXED_LEN + (i + 1) * SID_LEN])
        for i in range(n)
    )
    srh = SegmentRoutingHeader(
        next_header=next_header,
        segments=segments,
        segments_left=segments_left,
        flags=flags,
        tag=tag,
    )
    return srh, data[total:], _NEXT_LAYER.get(next_header, Payload)


def _decode_ipv4(data: bytes) -> tuple[Layer, bytes, type]:
    if len(data) < IPV4_HEADER_LEN:
        raise Srv6BenchError("truncated IPv4 header")
    if data[0] != ((4 << 4) | 5):
        raise Srv6BenchError("unsupported IPv4 version/IHL")
    total_length = int.from_bytes(data[2:4], "big")
    if total_length != len(data):
        raise Srv6BenchError("IPv4 total length does not match frame")
    if data[6:8] != b"\x00\x00":
        raise Srv6BenchError("unsupported IPv4 flags/fragment offset")
    # exactly the checksum encode writes: a stored 0xFFFF can also sum
    # right, where encode writes 0
    if _ipv4_checksum(data[:10] + data[12:IPV4_HEADER_LEN]) != int.from_bytes(data[10:12], "big"):
        raise Srv6BenchError("bad IPv4 header checksum")
    header = IPv4Header(
        protocol=data[9],
        src=data[12:16],
        dst=data[16:20],
        ttl=data[8],
        tos=data[1],
        identification=int.from_bytes(data[4:6], "big"),
    )
    return header, data[IPV4_HEADER_LEN:], Payload


def _decode_ethernet(data: bytes) -> tuple[Layer, bytes, type]:
    if len(data) < ETHERNET_LEN:
        raise Srv6BenchError("truncated Ethernet header")
    eth = Ethernet(
        dst=data[0:6],
        src=data[6:12],
        ethertype=int.from_bytes(data[12:14], "big"),
    )
    return eth, data[ETHERNET_LEN:], _ETHERTYPE_LAYER.get(eth.ethertype, Payload)


# layer -> its decoder: (the layer, the bytes after it, the class of the
# layer its next header or ethertype announces)
_DECODERS = {
    Ethernet: _decode_ethernet,
    IPv6Header: _decode_ipv6,
    SegmentRoutingHeader: _decode_srh,
    IPv4Header: _decode_ipv4,
}


def decode(data: bytes) -> PacketTemplate:
    """Parse wire bytes back into a template, one header at a time, each
    read as the layer the header before it announces. Inverse of encode."""
    layers = []
    announced = Ethernet
    while announced is not Payload:
        layer, data, announced = _DECODERS[announced](data)
        layers.append(layer)
    if data:
        layers.append(Payload(data))
    return PacketTemplate(tuple(layers))


def hexdump(template: PacketTemplate) -> str:
    """Classic 16-bytes-per-line hex dump of the encoded template."""
    raw = encode(template)
    lines = []
    for off in range(0, len(raw), 16):
        chunk = raw[off : off + 16]
        hexpart = " ".join(f"{b:02x}" for b in chunk)
        lines.append(f"{off:04x}  {hexpart}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# test packet construction


def _inner_stack(kind: InnerKind, size: int) -> list[Layer]:
    if kind is InnerKind.IPV6:
        if size < IPV6_HEADER_LEN:
            raise Srv6BenchError("inner IPv6 packet smaller than header")
        pad = size - IPV6_HEADER_LEN
        stack: list[Layer] = [IPv6Header(next_header=NEXT_HEADER_NONE)]
    elif kind is InnerKind.IPV4:
        if size < IPV4_HEADER_LEN:
            raise Srv6BenchError("inner IPv4 packet smaller than header")
        pad = size - IPV4_HEADER_LEN
        stack = [IPv4Header(protocol=PROTO_PAYLOAD)]
    else:  # inner Ethernet frame wrapping a small IPv6 packet
        if size < ETHERNET_LEN + IPV6_HEADER_LEN:
            raise Srv6BenchError("inner frame too small for Ethernet+IPv6")
        pad = size - ETHERNET_LEN - IPV6_HEADER_LEN
        stack = [Ethernet(), IPv6Header(next_header=NEXT_HEADER_NONE)]
    if pad:
        stack.append(Payload(b"\x00" * pad))
    return stack


_INNER_NEXT_HEADER = {
    InnerKind.IPV6: NEXT_HEADER_IPV6,
    InnerKind.IPV4: NEXT_HEADER_IPV4,
    InnerKind.ETHERNET: NEXT_HEADER_ETHERNET,
}

_INNER_ETHERTYPE = {
    InnerKind.IPV6: ETHERTYPE_IPV6,
    InnerKind.IPV4: ETHERTYPE_IPV4,
    InnerKind.ETHERNET: ETHERTYPE_IPV6,
}


def build_test_packet(
    req: TrafficRequirement,
    sid_plan: Sequence[Sid] = (),
) -> PacketTemplate:
    """Build the wire packet a traffic requirement calls for.

    sid_plan is in path order (first SID is visited first). For endpoint
    behaviors the result is Ethernet + outer IPv6 + SRH + inner packet,
    with the IPv6 destination set to the active SID; headend behaviors
    get the bare inner packet behind the wire Ethernet header.
    """
    inner = _inner_stack(req.inner_kind, req.inner_packet_size)

    if not req.needs_srv6_encap:
        if req.inner_kind is InnerKind.ETHERNET:
            # the received frame itself is the test packet
            return PacketTemplate(tuple(inner))
        eth = Ethernet(ethertype=_INNER_ETHERTYPE[req.inner_kind])
        return PacketTemplate(tuple([eth] + inner))

    if len(sid_plan) < req.min_sids:
        raise Srv6BenchError(
            f"need at least {req.min_sids} SIDs, got {len(sid_plan)}"
        )
    segments = tuple(reversed(tuple(sid_plan)))
    segments_left = len(segments) - 1 if req.active_sid_must_not_be_last else 0
    if req.active_sid_must_not_be_last and segments_left == 0:
        raise Srv6BenchError(
            "active SID must not be the last SID for this behavior"
        )

    srh = SegmentRoutingHeader(
        next_header=_INNER_NEXT_HEADER[req.inner_kind],
        segments=segments,
        segments_left=segments_left,
    )
    outer = IPv6Header(
        next_header=NEXT_HEADER_ROUTING,
        src=OUTER_SRC6,
        dst=srh.active_sid.value,
    )
    return PacketTemplate(tuple([Ethernet(), outer, srh] + inner))


# ---------------------------------------------------------------------------
# behavior transforms


@dataclass(frozen=True)
class BehaviorConfig:
    """A headend behavior's SID list, in path order. Endpoint behaviors
    take their table, next hop and interface from the address plan."""

    segments: tuple[Sid, ...] = ()


def default_behavior_configs() -> dict[BehaviorId, BehaviorConfig]:
    """SID lists of the headend policies on the address plan: a single
    segment for the encap flavors (segment rides in the destination
    address, no SRH) and two segments for SRH insertion. No other
    behavior reads a config."""
    sid1, sid2 = SID_PLAN
    return {
        BehaviorId.H_INSERT: BehaviorConfig(segments=(sid1, sid2)),
        BehaviorId.H_ENCAPS: BehaviorConfig(segments=(sid1,)),
        BehaviorId.H_ENCAPS_L2: BehaviorConfig(segments=(sid1,)),
    }


_PLAN_CONFIGS = default_behavior_configs()

FIB_LOOKUP = "fib-lookup"
XCONNECT = "xconnect"


@dataclass(frozen=True)
class ForwardAction:
    """The forwarding decision after a behavior: FIB lookup or cross-connect, and its target."""

    kind: str
    target: str


def _split_outer(template: PacketTemplate):
    """Ethernet + outer IPv6 + SRH + inner layers, or raise."""
    layers = template.layers
    if (
        len(layers) < 4
        or not isinstance(layers[0], Ethernet)
        or not isinstance(layers[1], IPv6Header)
        or not isinstance(layers[2], SegmentRoutingHeader)
    ):
        raise Srv6BenchError(
            "behavior needs an SRv6-encapsulated packet (IPv6 + SRH)"
        )
    return layers[0], layers[1], layers[2], layers[3:]


def _advance(template: PacketTemplate) -> PacketTemplate:
    """Decrement Segments Left, update the destination, decrement hop limit."""
    eth, outer, srh, inner = _split_outer(template)
    if srh.segments_left == 0:
        raise Srv6BenchError("segments left is already 0")
    new_srh = replace(srh, segments_left=srh.segments_left - 1)
    new_outer = replace(
        outer, dst=new_srh.active_sid.value, hop_limit=max(outer.hop_limit - 1, 0)
    )
    return PacketTemplate((eth, new_outer, new_srh) + inner)


def _decap(template: PacketTemplate, kind: InnerKind) -> PacketTemplate:
    layers = template.layers
    if (
        len(layers) < 3
        or not isinstance(layers[0], Ethernet)
        or not isinstance(layers[1], IPv6Header)
    ):
        raise Srv6BenchError(
            "decap needs an outer IPv6 encapsulation"
        )
    eth, outer = layers[0], layers[1]
    expected = _INNER_NEXT_HEADER[kind]
    if isinstance(layers[2], SegmentRoutingHeader):
        srh = layers[2]
        if srh.segments_left != 0:
            raise Srv6BenchError(
                "decap requires the active SID to be the last SID"
            )
        last_nh, inner = srh.next_header, layers[3:]
    else:
        # single-segment encapsulation carries no SRH
        last_nh, inner = outer.next_header, layers[2:]
    if last_nh != expected:
        raise Srv6BenchError(
            f"inner packet is not {kind.value} (next header {last_nh})"
        )
    if kind is InnerKind.ETHERNET:
        # the exposed L2 frame becomes the outgoing frame; inner bytes
        # stay untouched
        return PacketTemplate(inner)
    new_eth = replace(eth, ethertype=_INNER_ETHERTYPE[kind])
    return PacketTemplate((new_eth,) + inner)


def _encap(
    template: PacketTemplate, cfg: BehaviorConfig, l2: bool
) -> PacketTemplate:
    if not cfg.segments:
        raise Srv6BenchError("headend behavior needs a SID list")
    layers = template.layers
    if l2:
        inner: tuple[Layer, ...] = layers  # the whole received frame
        inner_nh = NEXT_HEADER_ETHERNET
        eth = Ethernet()
    else:
        if len(layers) < 2 or not isinstance(layers[1], (IPv6Header, IPv4Header)):
            raise Srv6BenchError("encap needs an inner IP packet")
        inner = layers[1:]
        inner_nh = (
            NEXT_HEADER_IPV6
            if isinstance(layers[1], IPv6Header)
            else NEXT_HEADER_IPV4
        )
        eth = replace(layers[0], ethertype=ETHERTYPE_IPV6)
    segments = tuple(reversed(cfg.segments))
    if len(segments) == 1:
        # single-segment policy: the segment rides in the destination
        # address, no SRH is added
        outer = IPv6Header(
            next_header=inner_nh, src=OUTER_SRC6, dst=segments[0].value
        )
        return PacketTemplate((eth, outer) + inner)
    srh = SegmentRoutingHeader(
        next_header=inner_nh, segments=segments, segments_left=len(segments) - 1
    )
    outer = IPv6Header(
        next_header=NEXT_HEADER_ROUTING,
        src=OUTER_SRC6,
        dst=srh.active_sid.value,
    )
    return PacketTemplate((eth, outer, srh) + inner)


def _insert(template: PacketTemplate, cfg: BehaviorConfig) -> PacketTemplate:
    if not cfg.segments:
        raise Srv6BenchError("headend behavior needs a SID list")
    layers = template.layers
    if len(layers) < 2 or not isinstance(layers[1], IPv6Header):
        raise Srv6BenchError("SRH insertion needs an IPv6 packet")
    eth, ipv6, rest = layers[0], layers[1], layers[2:]
    # original destination joins the list as the final segment
    segments = (Sid(ipv6.dst),) + tuple(reversed(cfg.segments))
    srh = SegmentRoutingHeader(
        next_header=ipv6.next_header,
        segments=segments,
        segments_left=len(segments) - 1,
    )
    new_ipv6 = replace(
        ipv6, next_header=NEXT_HEADER_ROUTING, dst=srh.active_sid.value
    )
    return PacketTemplate((eth, new_ipv6, srh) + rest)


def _plain_forward(template: PacketTemplate, kind: InnerKind) -> PacketTemplate:
    layers = template.layers
    if kind is InnerKind.IPV6:
        if len(layers) < 2 or not isinstance(layers[1], IPv6Header):
            raise Srv6BenchError("expected an IPv6 packet")
        hdr = replace(layers[1], hop_limit=max(layers[1].hop_limit - 1, 0))
    else:
        if len(layers) < 2 or not isinstance(layers[1], IPv4Header):
            raise Srv6BenchError("expected an IPv4 packet")
        hdr = replace(layers[1], ttl=max(layers[1].ttl - 1, 0))
    return PacketTemplate((layers[0], hdr) + layers[2:])


_B = BehaviorId
_K = InnerKind
_P = ADDRESS_PLAN

# behavior -> (transform, forwarding action kind, action target: "main" for
# the main table, else the address plan's table, next hop or out
# interface). A behavior's semantics are implemented exactly when it is
# listed here.
_SEMANTICS = {
    _B.END: (lambda t, cfg: _advance(t), FIB_LOOKUP, "main"),
    _B.END_T: (lambda t, cfg: _advance(t), FIB_LOOKUP, _P["table"]),
    _B.END_X: (lambda t, cfg: _advance(t), XCONNECT, _P["nexthop6"]),
    _B.END_DT6: (lambda t, cfg: _decap(t, _K.IPV6), FIB_LOOKUP, _P["table"]),
    _B.END_DT4: (lambda t, cfg: _decap(t, _K.IPV4), FIB_LOOKUP, _P["table"]),
    _B.END_DX6: (lambda t, cfg: _decap(t, _K.IPV6), XCONNECT, _P["iface_out"]),
    _B.END_DX4: (lambda t, cfg: _decap(t, _K.IPV4), XCONNECT, _P["iface_out"]),
    _B.END_DX2: (lambda t, cfg: _decap(t, _K.ETHERNET), XCONNECT, _P["iface_out"]),
    _B.H_INSERT: (_insert, FIB_LOOKUP, "main"),
    _B.H_ENCAPS: (lambda t, cfg: _encap(t, cfg, l2=False), FIB_LOOKUP, "main"),
    _B.H_ENCAPS_L2: (lambda t, cfg: _encap(t, cfg, l2=True), FIB_LOOKUP, "main"),
    _B.PLAIN_IPV6: (lambda t, cfg: _plain_forward(t, _K.IPV6), FIB_LOOKUP, "main"),
    _B.PLAIN_IPV4: (lambda t, cfg: _plain_forward(t, _K.IPV4), FIB_LOOKUP, "main"),
}


def apply_behavior(
    behavior: BehaviorId,
    template: PacketTemplate,
    cfg: Optional[BehaviorConfig] = None,
) -> tuple[PacketTemplate, ForwardAction]:
    """Apply one forwarding behavior to a packet, on cfg or, without one,
    on the address plan's config for the behavior.

    Returns the transformed packet and the forwarding decision that a
    real dataplane would take afterwards.
    """
    spec = lookup(behavior)
    try:
        transform, kind, target = _SEMANTICS[spec.id]
    except KeyError:
        raise Srv6BenchError(f"{spec.id} semantics are not implemented") from None
    if cfg is None:  # None for an endpoint behavior: only headend transforms read cfg
        cfg = _PLAN_CONFIGS.get(spec.id)
    return transform(template, cfg), ForwardAction(kind, target)


def satisfies(template: PacketTemplate, req: TrafficRequirement) -> bool:
    """Check a packet against a traffic requirement (structure only)."""
    layers = template.layers
    if req.needs_srv6_encap:
        try:
            _, _, srh, inner = _split_outer(template)
        except Srv6BenchError:
            return False
        if len(srh.segments) < req.min_sids:
            return False
        if req.active_sid_must_not_be_last and srh.segments_left == 0:
            return False
        if srh.next_header != _INNER_NEXT_HEADER[req.inner_kind]:
            return False
        return True
    if req.inner_kind is InnerKind.IPV6:
        return len(layers) >= 2 and isinstance(layers[1], IPv6Header)
    if req.inner_kind is InnerKind.IPV4:
        return len(layers) >= 2 and isinstance(layers[1], IPv4Header)
    return isinstance(layers[0], Ethernet)

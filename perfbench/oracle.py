"""Independent arithmetic that the benchmark checks srv6bench against.

Nothing here imports srv6bench. The line packet rate, the frame size of
every test packet, the delivery curve and the closed-form PDR are written
out from their definitions, so a fault in the program cannot hide inside
its own oracle.
"""

from __future__ import annotations

ETH = 14  # Ethernet header, outer or inner
IPV6 = 40
IPV4 = 20
SRH_FIXED = 8
SID = 16
# CRC 4 B + preamble/SFD 8 B + inter-frame gap 12 B
WIRE_OVERHEAD = 24
MIN_FRAME = 64

# IP packet size -> line packet rate in kpps at 10 Gb/s, the published
# reference figures the LPR formula must reproduce.
REFERENCE_KPPS = {64: 12255, 104: 8803, 144: 6868}


def srh(n_sids: int) -> int:
    return SRH_FIXED + SID * n_sids


# Headers of the inner packet of each kind; the payload fills the rest of
# the configured inner size.
INNER_HEADERS = {"ipv6": IPV6, "ipv4": IPV4, "ethernet": ETH + IPV6}

# behavior -> (inner kind, headers in front of the inner packet on the test
# packet, headers in front of it once the behavior has forwarded it).
# Endpoint test packets carry Ethernet + outer IPv6 + a 2-SID SRH. Headend
# and plain test packets are the bare inner packet behind Ethernet; the L2
# headend receives the inner frame itself. H.Insert adds an SRH holding
# the original destination plus its 2 SIDs; the encap headends use one
# segment, so they add an outer IPv6 header and no SRH.
BEHAVIORS = {
    "H.Insert": ("ipv6", (ETH,), (ETH, srh(3))),
    "H.Encaps": ("ipv6", (ETH,), (ETH, IPV6)),
    "H.Encaps.L2": ("ethernet", (), (ETH, IPV6)),
    "End": ("ipv6", (ETH, IPV6, srh(2)), (ETH, IPV6, srh(2))),
    "End.T": ("ipv6", (ETH, IPV6, srh(2)), (ETH, IPV6, srh(2))),
    "End.X": ("ipv6", (ETH, IPV6, srh(2)), (ETH, IPV6, srh(2))),
    "End.DT4": ("ipv4", (ETH, IPV6, srh(2)), (ETH,)),
    "End.DT6": ("ipv6", (ETH, IPV6, srh(2)), (ETH,)),
    "End.DX2": ("ethernet", (ETH, IPV6, srh(2)), ()),
    "End.DX4": ("ipv4", (ETH, IPV6, srh(2)), (ETH,)),
    "End.DX6": ("ipv6", (ETH, IPV6, srh(2)), (ETH,)),
    "PlainIPv4": ("ipv4", (ETH,), (ETH,)),
    "PlainIPv6": ("ipv6", (ETH,), (ETH,)),
}


def _inner(behavior: str, inner_size: int) -> int:
    headers = INNER_HEADERS[BEHAVIORS[behavior][0]]
    payload = inner_size - headers
    if payload < 0:
        raise ValueError(f"{behavior}: inner size {inner_size} below its headers")
    return headers + payload


def frame_size(behavior: str, inner_size: int) -> int:
    """Frame size of the test packet: headers plus inner packet, no CRC."""
    return sum(BEHAVIORS[behavior][1]) + _inner(behavior, inner_size)


def forwarded_frame_size(behavior: str, inner_size: int) -> int:
    """Frame size of the packet after the behavior has processed it."""
    return sum(BEHAVIORS[behavior][2]) + _inner(behavior, inner_size)


def line_packet_rate(bit_rate_bps: float, frame: int) -> float:
    """R / (8 * (frame + 24)) packets per second."""
    if frame < MIN_FRAME:
        raise ValueError(f"frame {frame} B below the Ethernet minimum")
    return bit_rate_bps / (8.0 * (frame + WIRE_OVERHEAD))


def check_reference_figures() -> list[str]:
    """Problems found when reproducing REFERENCE_KPPS; empty when it holds."""
    return [
        f"LPR for {ip} B IP packets is not {kpps} kpps"
        for ip, kpps in REFERENCE_KPPS.items()
        if round(line_packet_rate(10e9, ip + ETH) / 1e3) != kpps
    ]


def delivery(capacity: float, l0: float, p: float, rate: float) -> float:
    """Delivery ratio at an offered rate: 1 - l0 (r/C)^p up to C, then the
    output is pinned at (1 - l0) C."""
    if rate <= capacity:
        return 1.0 - l0 * (rate / capacity) ** p
    return (1.0 - l0) * capacity / rate


def _pdr_factor(l0: float, p: float, x: float) -> float:
    if x <= l0:
        return (x / l0) ** (1.0 / p)
    return (1.0 - l0) / (1.0 - x)


def pdr(capacity: float, l0: float, p: float, x: float) -> float:
    """Closed-form PDR@x: C (x/l0)^(1/p) if x <= l0, else (1-l0) C / (1-x)."""
    return capacity * _pdr_factor(l0, p, x)


def capacity_for_pdr(target_pdr: float, l0: float, p: float, x: float) -> float:
    """The capacity whose PDR@x is target_pdr."""
    return target_pdr / _pdr_factor(l0, p, x)

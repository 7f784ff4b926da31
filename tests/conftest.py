from dataclasses import replace
from pathlib import Path

import pytest

from srv6bench import packet
from srv6bench.catalog import BehaviorId, traffic_requirement
from srv6bench.packet import NEXT_HEADER_NONE, PacketTemplate, Sid, build_test_packet

SID1 = Sid.from_str("fc00:0:0:1::1")
SID2 = Sid.from_str("fc00:0:0:2::1")

# 10GbE line packet rate for a 64-byte IP packet (78-byte frame)
LPR_64 = 10e9 / (8.0 * (78 + 24))

# the shipped configuration files
SHIPPED = Path(__file__).resolve().parent.parent / "configs"


class CountingDriver:
    """Passes trials to the wrapped driver and counts them and their
    seconds."""

    def __init__(self, inner):
        self.inner = inner
        self.trials = 0
        self.seconds = 0.0

    def run_trial(self, rate_pps, duration_s):
        self.trials += 1
        self.seconds += duration_s
        return self.inner.run_trial(rate_pps, duration_s)


@pytest.fixture
def end_template():
    """Canonical End test packet: outer IPv6 + 2-SID SRH + 64B inner IPv6."""
    req = traffic_requirement(BehaviorId.END)
    return build_test_packet(req, [SID1, SID2])


@pytest.fixture
def dt6_template():
    """End.DT6 test packet: SRH present, Segments Left already 0."""
    req = traffic_requirement(BehaviorId.END_DT6)
    return build_test_packet(req, [SID1, SID2])


def _patch_end(monkeypatch, rewrite):
    """Patch End's transform to pass its forwarded layers through rewrite."""
    transform, kind, target = packet._SEMANTICS[BehaviorId.END]

    def patched(template, cfg):
        return PacketTemplate(rewrite(*transform(template, cfg).layers))

    monkeypatch.setitem(packet._SEMANTICS, BehaviorId.END, (patched, kind, target))


@pytest.fixture
def nonconforming_end(monkeypatch):
    """End's transform patched to write an outer next header of "none" in
    front of the SRH: encode refuses the forwarded packet, because decode
    would read the SRH as a payload."""
    _patch_end(monkeypatch, lambda eth, outer, *rest: (eth, replace(outer, next_header=NEXT_HEADER_NONE), *rest))


@pytest.fixture
def misnested_end(monkeypatch):
    """End's transform patched to put the payload ahead of the inner IPv6
    header: encode refuses the forwarded packet, because the payload is
    not innermost."""
    _patch_end(monkeypatch, lambda *layers: (*layers[:-2], layers[-1], layers[-2]))

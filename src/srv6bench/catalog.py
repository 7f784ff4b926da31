"""Registry of SRv6 forwarding behaviors.

One entry per behavior, carrying its category, per-forwarder support
flags and the traffic it needs on the wire; a behavior is measurable
exactly when it has a traffic requirement. Plain IPv4/IPv6 forwarding
are modeled as pseudo-behaviors so baseline experiments fit the same
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from enum import Enum
from typing import Optional

from .errors import Srv6BenchError


class BehaviorId(str, Enum):
    H_INSERT = "H.Insert"
    H_INSERT_RED = "H.Insert.Red"
    H_ENCAPS = "H.Encaps"
    H_ENCAPS_RED = "H.Encaps.Red"
    H_ENCAPS_L2 = "H.Encaps.L2"
    H_ENCAPS_L2_RED = "H.Encaps.L2.Red"
    END = "End"
    END_T = "End.T"
    END_X = "End.X"
    END_DT4 = "End.DT4"
    END_DT6 = "End.DT6"
    END_DT46 = "End.DT46"
    END_DX2 = "End.DX2"
    END_DX4 = "End.DX4"
    END_DX6 = "End.DX6"
    END_DX2V = "End.DX2V"
    END_DT2U = "End.DT2U"
    END_DT2M = "End.DT2M"
    END_B6_INSERT = "End.B6.Insert"
    END_B6_INSERT_RED = "End.B6.Insert.Red"
    END_B6_ENCAPS = "End.B6.Encaps"
    END_B6_ENCAPS_RED = "End.B6.Encaps.Red"
    END_BM = "End.BM"
    END_AS = "End.AS"
    END_AD = "End.AD"
    END_AM = "End.AM"
    T_M_TMAP = "T.M.Tmap"
    END_M_GTP4_E = "End.M.GTP4.E"
    END_M_GTP4_D = "End.M.GTP4.D"
    END_GTP6_D_DI = "End.GTP6.D.Di"
    END_M_GTP6_E = "End.M.GTP6.E"
    END_M_GTP6_D = "End.M.GTP6.D"
    PLAIN_IPV4 = "PlainIPv4"
    PLAIN_IPV6 = "PlainIPv6"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, name: str) -> "BehaviorId":
        try:
            return cls(name)
        except ValueError:
            raise Srv6BenchError(f"unknown behavior: {name!r}") from None


class Category(str, Enum):
    HEADEND = "headend"
    ENDPOINT_NO_DECAP = "endpoint-no-decap"
    ENDPOINT_DECAP = "endpoint-decap"
    BINDING_SID = "binding-sid"
    PROXY = "proxy"
    MOBILE = "mobile"
    PLAIN_IP = "plain-ip"


class InnerKind(str, Enum):
    IPV6 = "ipv6"
    IPV4 = "ipv4"
    ETHERNET = "ethernet"


@dataclass(frozen=True)
class TrafficRequirement:
    """What a test packet for a behavior must look like on the wire."""

    inner_kind: InnerKind
    needs_srv6_encap: bool
    min_sids: int = 0
    active_sid_must_not_be_last: bool = False
    inner_packet_size: int = 64


@dataclass(frozen=True)
class BehaviorSpec:
    """A catalog entry: a behavior, its category, its support and its test traffic."""

    id: BehaviorId
    category: Category
    linux_supported: bool
    vpp_supported: bool
    traffic: Optional[TrafficRequirement]

    @property
    def measured(self) -> bool:
        """The benchmark can measure this behavior: it has a traffic spec."""
        return self.traffic is not None


def _endpoint_req(kind: InnerKind, decap: bool) -> TrafficRequirement:
    # All endpoint test packets carry a 2-SID SRH; no-decap behaviors need
    # the active SID not to be the last one (Segments Left >= 1), decap
    # behaviors are exercised at the final segment (Segments Left == 0).
    return TrafficRequirement(
        inner_kind=kind,
        needs_srv6_encap=True,
        min_sids=2,
        active_sid_must_not_be_last=not decap,
    )


def _headend_req(kind: InnerKind) -> TrafficRequirement:
    return TrafficRequirement(inner_kind=kind, needs_srv6_encap=False)


_B = BehaviorId
_C = Category
_K = InnerKind

# id, category, linux, vpp, traffic (None: not measurable)
# End.DT4 is flagged unsupported on Linux: the mainline kernel lacks it,
# even though VPP provides it.
_ROWS = (
    (_B.H_INSERT, _C.HEADEND, True, True, _headend_req(_K.IPV6)),
    (_B.H_INSERT_RED, _C.HEADEND, False, False, None),
    (_B.H_ENCAPS, _C.HEADEND, True, True, _headend_req(_K.IPV6)),
    # Reduced-mode encaps has no documented traffic profile; left unset.
    (_B.H_ENCAPS_RED, _C.HEADEND, False, True, None),
    (_B.H_ENCAPS_L2, _C.HEADEND, True, True, _headend_req(_K.ETHERNET)),
    (_B.H_ENCAPS_L2_RED, _C.HEADEND, False, True, None),
    (_B.END, _C.ENDPOINT_NO_DECAP, True, True, _endpoint_req(_K.IPV6, False)),
    (_B.END_T, _C.ENDPOINT_NO_DECAP, True, True, _endpoint_req(_K.IPV6, False)),
    (_B.END_X, _C.ENDPOINT_NO_DECAP, True, True, _endpoint_req(_K.IPV6, False)),
    (_B.END_DT4, _C.ENDPOINT_DECAP, False, True, _endpoint_req(_K.IPV4, True)),
    (_B.END_DT6, _C.ENDPOINT_DECAP, True, True, _endpoint_req(_K.IPV6, True)),
    (_B.END_DT46, _C.ENDPOINT_DECAP, False, False, None),
    (_B.END_DX2, _C.ENDPOINT_DECAP, True, True, _endpoint_req(_K.ETHERNET, True)),
    (_B.END_DX4, _C.ENDPOINT_DECAP, True, True, _endpoint_req(_K.IPV4, True)),
    (_B.END_DX6, _C.ENDPOINT_DECAP, True, True, _endpoint_req(_K.IPV6, True)),
    (_B.END_DX2V, _C.ENDPOINT_DECAP, False, False, None),
    (_B.END_DT2U, _C.ENDPOINT_DECAP, False, False, None),
    (_B.END_DT2M, _C.ENDPOINT_DECAP, False, False, None),
    (_B.END_B6_INSERT, _C.BINDING_SID, True, True, None),
    (_B.END_B6_INSERT_RED, _C.BINDING_SID, False, False, None),
    (_B.END_B6_ENCAPS, _C.BINDING_SID, True, True, None),
    (_B.END_B6_ENCAPS_RED, _C.BINDING_SID, False, True, None),
    (_B.END_BM, _C.BINDING_SID, False, False, None),
    (_B.END_AS, _C.PROXY, False, True, None),
    (_B.END_AD, _C.PROXY, False, True, None),
    (_B.END_AM, _C.PROXY, False, True, None),
    (_B.T_M_TMAP, _C.MOBILE, False, True, None),
    (_B.END_M_GTP4_E, _C.MOBILE, False, True, None),
    (_B.END_M_GTP4_D, _C.MOBILE, False, True, None),
    (_B.END_GTP6_D_DI, _C.MOBILE, False, True, None),
    (_B.END_M_GTP6_E, _C.MOBILE, False, True, None),
    (_B.END_M_GTP6_D, _C.MOBILE, False, True, None),
    (_B.PLAIN_IPV4, _C.PLAIN_IP, True, True, _headend_req(_K.IPV4)),
    (_B.PLAIN_IPV6, _C.PLAIN_IP, True, True, _headend_req(_K.IPV6)),
)

_CATALOG = tuple(BehaviorSpec(*row) for row in _ROWS)

_BY_ID = {spec.id: spec for spec in _CATALOG}


def catalog() -> tuple[BehaviorSpec, ...]:
    """The complete, immutable behavior registry."""
    return _CATALOG


def lookup(behavior: BehaviorId) -> BehaviorSpec:
    try:
        return _BY_ID[BehaviorId(behavior)]
    except (KeyError, ValueError):
        raise Srv6BenchError(f"unknown behavior: {behavior!r}") from None


def traffic_requirement(behavior: BehaviorId) -> TrafficRequirement:
    spec = lookup(behavior)
    if spec.traffic is None:
        raise Srv6BenchError(
            f"{spec.id} has no traffic specification (not measurable)"
        )
    return spec.traffic


def spec_as_dict(spec: BehaviorSpec) -> dict:
    """JSON-friendly view of one catalog entry."""
    traffic = None
    if spec.traffic is not None:
        traffic = dict(asdict(spec.traffic), inner_kind=spec.traffic.inner_kind.value)
    return {
        "id": spec.id.value,
        "category": spec.category.value,
        "linux_supported": spec.linux_supported,
        "vpp_supported": spec.vpp_supported,
        "measured": spec.measured,
        "traffic": traffic,
    }

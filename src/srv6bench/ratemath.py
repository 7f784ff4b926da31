"""Rate arithmetic: line packet rate, delivery ratio and summary statistics.

All rates are carried as real numbers in packets per second; kpps is a
presentation concern only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import Srv6BenchError

# 4 bytes CRC + 8 bytes preamble/SFD + 12 bytes inter-frame gap
ETHERNET_OVERHEAD = 24
MIN_FRAME_SIZE = 64

# Two-sided 95% Student-t quantiles, t(0.975, df) for df = 1 ... 30.
# summarize's CI95 and the finder's near-band stop test use them.
T_95 = (
    12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060, 2.2622, 2.2281,
    2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199, 2.1098, 2.1009, 2.0930, 2.0860,
    2.0796, 2.0739, 2.0687, 2.0639, 2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
)


def t_95(df: int) -> float:
    """Half-width factor of the Student-t 95% interval with df degrees of
    freedom. Past the table it is the last entry, which is larger than the
    exact quantile, so an interval built from it is never too narrow."""
    if df < 1:
        raise ValueError("need at least one degree of freedom")
    return T_95[min(df, len(T_95)) - 1]


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point Ethernet link.

    line_bit_rate_bps is the raw line rate (e.g. 10e9 for 10GbE); every
    frame also pays ETHERNET_OVERHEAD bytes on the wire.
    """

    line_bit_rate_bps: float

    def __post_init__(self):
        if not 0 < self.line_bit_rate_bps < math.inf:  # NaN fails too
            raise ValueError("line_bit_rate_bps must be positive and finite")


@dataclass(frozen=True)
class TrialSample:
    """One fixed-rate, fixed-duration traffic offering.

    tx_packets were offered to the forwarder, rx_packets came back.
    """

    tx_packets: int
    rx_packets: int
    duration_s: float

    def __post_init__(self):
        if not 0 < self.duration_s < math.inf:  # NaN fails too
            raise ValueError("duration must be positive and finite")
        if self.rx_packets > self.tx_packets:
            raise ValueError("rx_packets cannot exceed tx_packets")
        if self.tx_packets < 0 or self.rx_packets < 0:
            raise ValueError("packet counts must be non-negative")

    @property
    def throughput_pps(self) -> float:
        return self.rx_packets / self.duration_s


@dataclass(frozen=True)
class SummaryStats:
    """Mean with relative dispersion figures.

    cv_percent is 100*s/mean with the n-1 sample standard deviation;
    ci95_percent is the half-width of the Student-t 95% interval of the
    mean, t_95(n - 1) * s / sqrt(n), relative to the mean. Both are 0 by
    convention for n = 1.
    """

    mean: float
    cv_percent: float
    ci95_percent: float
    n: int


def line_packet_rate(link: LinkSpec, frame_size: int) -> float:
    """Maximum packets/second the link admits at a given Ethernet frame size.

    frame_size includes the 14-byte Ethernet header but not CRC, preamble
    or inter-frame gap (those are the ETHERNET_OVERHEAD bytes).
    """
    if frame_size < MIN_FRAME_SIZE:
        raise Srv6BenchError(
            f"frame_size {frame_size} below Ethernet minimum {MIN_FRAME_SIZE}"
        )
    return link.line_bit_rate_bps / (8.0 * (frame_size + ETHERNET_OVERHEAD))


def delivery_ratio(sample: TrialSample) -> float:
    """Fraction of offered packets that the forwarder delivered back."""
    if sample.tx_packets == 0:
        raise Srv6BenchError("delivery ratio undefined for zero offered packets")
    return sample.rx_packets / sample.tx_packets


def _sqrt_of_frac(n: int, m: int) -> float:
    """sqrt(n/m) for non-negative integers n and m > 0, correctly rounded.

    n/m is first scaled by a power of four to at least 2**108, so its
    integer square root has at least 55 bits, two more than a float. The
    root is rounded to odd (its last bit says whether it was exact), so
    the one rounding to float at the end is correct.
    """
    shift = (n.bit_length() - m.bit_length() - 109) // 2
    if shift >= 0:
        m <<= 2 * shift
    else:
        n <<= -2 * shift
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def summarize(samples: Sequence[float]) -> SummaryStats:
    """Mean/CV/CI95 over a set of rate samples (packets/second).

    The mean is math.fsum(samples) / n. The sample standard deviation is
    computed exactly on integers and correctly rounded, so it is the
    value statistics.stdev returns on Python 3.11 and later.
    """
    if not samples:
        raise Srv6BenchError("cannot summarize an empty sample list")
    try:
        ratios = [x.as_integer_ratio() for x in samples]
    except (ValueError, OverflowError):  # NaN, infinity
        raise Srv6BenchError("cannot summarize a NaN or infinite sample") from None
    n = len(samples)
    mean = math.fsum(samples) / n
    if n == 1:
        return SummaryStats(mean=mean, cv_percent=0.0, ci95_percent=0.0, n=1)
    # every denominator is a power of two: put the samples over the largest
    d = max(den for _, den in ratios)
    xs = [num * (d // den) for num, den in ratios]
    sx = sum(xs)
    s = _sqrt_of_frac(n * sum(x * x for x in xs) - sx * sx, n * (n - 1) * d * d)
    if mean == 0.0:
        if s == 0.0:
            return SummaryStats(mean=0.0, cv_percent=0.0, ci95_percent=0.0, n=n)
        raise Srv6BenchError("CV undefined: zero mean with nonzero deviation")
    cv = 100.0 * s / mean
    ci95 = 100.0 * (t_95(n - 1) * s / math.sqrt(n)) / mean
    return SummaryStats(mean=mean, cv_percent=abs(cv), ci95_percent=abs(ci95), n=n)

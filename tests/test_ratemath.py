import math
import statistics
import sys

import pytest
from hypothesis import given, strategies as st

from srv6bench.errors import Srv6BenchError
from srv6bench.ratemath import (
    LinkSpec,
    TrialSample,
    delivery_ratio,
    T_95,
    line_packet_rate,
    summarize,
    t_95,
)

TEN_GIG = LinkSpec(line_bit_rate_bps=10e9)


class TestLinePacketRate:
    # Reference figures computed by hand: R / (8 * (frame + 24)) for a
    # 10 Gb/s link; frame = IP size + 14.
    @pytest.mark.parametrize(
        "ip_size,expected_pps",
        [
            (64, 10e9 / (8 * 102)),
            (104, 10e9 / (8 * 142)),
            (144, 10e9 / (8 * 182)),
        ],
    )
    def test_ten_gig_reference_points(self, ip_size, expected_pps):
        assert line_packet_rate(TEN_GIG, ip_size + 14) == pytest.approx(
            expected_pps, abs=1e-6
        )

    def test_known_kpps_roundings(self):
        assert round(line_packet_rate(TEN_GIG, 78) / 1e3) == 12255
        assert round(line_packet_rate(TEN_GIG, 118) / 1e3) == 8803
        assert round(line_packet_rate(TEN_GIG, 158) / 1e3) == 6868

    def test_runt_frame_rejected(self):
        with pytest.raises(Srv6BenchError, match="^frame_size 63 below Ethernet minimum 64$"):
            line_packet_rate(TEN_GIG, 63)

    def test_minimum_frame_accepted(self):
        assert line_packet_rate(TEN_GIG, 64) > 0

    def test_rate_scales_with_bit_rate(self):
        forty = LinkSpec(line_bit_rate_bps=40e9)
        assert line_packet_rate(forty, 78) == pytest.approx(
            4 * line_packet_rate(TEN_GIG, 78)
        )

    @given(frame=st.integers(min_value=64, max_value=9000))
    def test_monotone_in_frame_size(self, frame):
        assert line_packet_rate(TEN_GIG, frame) >= line_packet_rate(TEN_GIG, frame + 1)

    def test_bad_link_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(line_bit_rate_bps=0)


class TestTrialSample:
    def test_rates(self):
        s = TrialSample(tx_packets=1000, rx_packets=900, duration_s=2.0)
        assert s.throughput_pps == 450.0

    def test_rx_cannot_exceed_tx(self):
        with pytest.raises(ValueError):
            TrialSample(tx_packets=10, rx_packets=11, duration_s=1.0)

    def test_duration_must_be_positive(self):
        # NaN and infinity fail too: a NaN duration would give a NaN throughput
        for duration in (0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^duration must be positive and finite$"):
                TrialSample(tx_packets=10, rx_packets=5, duration_s=duration)


class TestDeliveryRatio:
    def test_simple(self):
        s = TrialSample(tx_packets=200, rx_packets=199, duration_s=1.0)
        assert delivery_ratio(s) == pytest.approx(0.995)

    def test_zero_offered_is_undefined(self):
        s = TrialSample(tx_packets=0, rx_packets=0, duration_s=1.0)
        message = "^delivery ratio undefined for zero offered packets$"
        with pytest.raises(Srv6BenchError, match=message):
            delivery_ratio(s)

    @given(
        tx=st.integers(min_value=1, max_value=10**9),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_always_in_unit_interval(self, tx, frac):
        rx = min(int(tx * frac), tx)
        s = TrialSample(tx_packets=tx, rx_packets=rx, duration_s=1.0)
        assert 0.0 <= delivery_ratio(s) <= 1.0


def t_cdf(x, df, steps=2000):
    """Student-t CDF at x >= 0, by Simpson's rule over the density."""

    def density(t):
        return math.exp(
            math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
            - (df + 1) / 2 * math.log1p(t * t / df)
        ) / math.sqrt(df * math.pi)

    h = x / steps
    inner = sum((4 if k % 2 else 2) * density(k * h) for k in range(1, steps))
    return 0.5 + h / 3 * (density(0.0) + inner + density(x))


class TestStudentT:
    @pytest.mark.parametrize("df", range(1, len(T_95) + 1))
    def test_table_holds_the_975_quantiles(self, df):
        # four decimals move the CDF by at most 5e-5 times the density
        assert t_95(df) == T_95[df - 1]
        assert t_cdf(t_95(df), df) == pytest.approx(0.975, abs=1e-5)

    def test_past_the_table_takes_its_last_and_larger_quantile(self):
        assert t_95(31) == t_95(1000) == T_95[-1]
        assert t_cdf(T_95[-1], 31) > 0.975
        assert list(T_95) == sorted(T_95, reverse=True)

    def test_needs_a_degree_of_freedom(self):
        with pytest.raises(ValueError):
            t_95(0)


class TestSummarize:
    def test_hand_computed_triple(self):
        # mean 2, sample stdev 1 -> CV 50%, CI95 = t(0.975, 2)/sqrt(3)/2 * 100
        st_ = summarize([1.0, 2.0, 3.0])
        assert st_.mean == pytest.approx(2.0)
        assert st_.cv_percent == pytest.approx(50.0)
        assert st_.ci95_percent == pytest.approx(100 * 4.3027 / math.sqrt(3) / 2)
        assert st_.n == 3

    def test_single_sample_has_zero_dispersion(self):
        st_ = summarize([42.0])
        assert (st_.mean, st_.cv_percent, st_.ci95_percent, st_.n) == (42.0, 0, 0, 1)

    def test_identical_samples(self):
        st_ = summarize([5.0] * 10)
        assert st_.cv_percent == 0.0
        assert st_.ci95_percent == 0.0

    def test_empty_rejected(self):
        with pytest.raises(Srv6BenchError, match="^cannot summarize an empty sample list$"):
            summarize([])

    @given(
        samples=st.lists(
            st.floats(min_value=1.0, max_value=1e7), min_size=2, max_size=30
        ),
        scale=st.floats(min_value=0.001, max_value=1000.0),
    )
    def test_cv_is_scale_invariant(self, samples, scale):
        a = summarize(samples)
        b = summarize([x * scale for x in samples])
        assert b.cv_percent == pytest.approx(a.cv_percent, rel=1e-6, abs=1e-9)
        assert b.ci95_percent == pytest.approx(a.ci95_percent, rel=1e-6, abs=1e-9)


# finite samples whose squared deviations stay in the normal float range,
# where statistics.stdev is exact up to its final roundings
MAGNITUDES = st.floats(min_value=1e-100, max_value=1e100)
FINITE = st.one_of(
    MAGNITUDES,
    MAGNITUDES.map(lambda x: -x),
    st.just(0.0),
    st.integers(min_value=-(10**15), max_value=10**15),
    # close together, like the received rates of near-band repeats
    st.floats(min_value=7.4e5, max_value=7.6e5),
)
SAMPLES = st.one_of(
    st.lists(FINITE, min_size=2, max_size=12),
    # repeated values
    st.lists(FINITE, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=12)
    ),
)


def reference(samples, s):
    """(cv_percent, ci95_percent) from statistics, with standard deviation s."""
    mean = statistics.fmean(samples)
    n = len(samples)
    return abs(100.0 * s / mean), abs(100.0 * (t_95(n - 1) * s / math.sqrt(n)) / mean)


class TestSummarizeAgainstStatistics:
    @given(samples=SAMPLES)
    def test_matches_statistics(self, samples):
        s = statistics.stdev(samples)
        if statistics.fmean(samples) == 0.0 and s != 0.0:
            with pytest.raises(Srv6BenchError, match="^CV undefined: zero mean with nonzero deviation$"):
                summarize(samples)
            return
        got = summarize(samples)
        assert got.mean == statistics.fmean(samples)
        if got.mean == 0.0:
            assert (got.cv_percent, got.ci95_percent) == (0.0, 0.0)
            return
        if sys.version_info >= (3, 11):
            # statistics.stdev is correctly rounded: bit-identical
            assert (got.cv_percent, got.ci95_percent) == reference(samples, s)
        else:
            # 3.10 rounds the variance, then its square root: within one ulp
            neighbours = (math.nextafter(s, 0.0), s, math.nextafter(s, math.inf))
            assert (got.cv_percent, got.ci95_percent) in [reference(samples, x) for x in neighbours]

    @given(
        samples=st.lists(FINITE, min_size=0, max_size=11),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        at=st.integers(min_value=0, max_value=11),
    )
    def test_nan_or_infinite_sample_rejected(self, samples, bad, at):
        samples.insert(at, bad)
        with pytest.raises(Srv6BenchError, match="^cannot summarize a NaN or infinite sample$"):
            summarize(samples)

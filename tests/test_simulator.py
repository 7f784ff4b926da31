import math
import random
import re
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from srv6bench.catalog import BehaviorId, InnerKind, catalog, traffic_requirement
from srv6bench.errors import Srv6BenchError
from srv6bench.orchestrator import default_behavior_configs, packet_for
from srv6bench.packet import (
    BehaviorConfig,
    ETHERNET_LEN,
    IPV4_HEADER_LEN,
    IPV6_HEADER_LEN,
    PacketTemplate,
    Sid,
    apply_behavior,
    build_test_packet,
    decode,
    encode,
)
from srv6bench.simulator import (
    ForwarderModel,
    SimDriver,
    analytic_pdr,
    delivery_model,
)
from conftest import SID1, SID2

END = BehaviorId.END


def model(capacity=5_000_000, **kw):
    return ForwarderModel({END: capacity}, **kw)


class TestDeliveryCurve:
    def test_delivery_at_capacity(self):
        m = model(loss_at_capacity=0.01)
        assert delivery_model(m, END, 5_000_000) == pytest.approx(0.99)

    def test_delivery_above_capacity_is_output_pinned(self):
        m = model(loss_at_capacity=0.01)
        # output stays at 0.99 * C, so DR falls as C/r
        assert delivery_model(m, END, 10_000_000) == pytest.approx(0.495)

    def test_delivery_far_below_capacity_is_near_one(self):
        m = model(loss_at_capacity=0.01, curve_exponent=4.0)
        assert delivery_model(m, END, 500_000) == pytest.approx(1.0, abs=1e-5)

    @given(rate=st.floats(min_value=1.0, max_value=5e7))
    def test_curve_stays_in_unit_interval(self, rate):
        m = model(loss_at_capacity=0.05, curve_exponent=2.0)
        assert 0.0 < delivery_model(m, END, rate) <= 1.0

    def test_curve_is_monotone_nonincreasing(self):
        m = model()
        rates = [i * 250_000 for i in range(1, 60)]
        drs = [delivery_model(m, END, r) for r in rates]
        assert all(a >= b for a, b in zip(drs, drs[1:]))

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="^rate must be positive and finite$"):
            delivery_model(model(), END, rate)


class TestAnalyticPdr:
    def test_ramp_inversion(self):
        m = model(loss_at_capacity=0.01, curve_exponent=4.0)
        assert analytic_pdr(m, END, 0.005) == pytest.approx(
            5_000_000 * 0.5 ** 0.25, abs=0.01
        )

    def test_sharp_knee_inversion(self):
        m = model(loss_at_capacity=0.0)
        assert analytic_pdr(m, END, 0.005) == pytest.approx(
            5_000_000 / 0.995, abs=0.01
        )

    def test_continuity_at_capacity(self):
        m = model(loss_at_capacity=0.01)
        assert analytic_pdr(m, END, 0.01) == pytest.approx(5_000_000)

    def test_inverts_the_forward_curve(self):
        m = model(loss_at_capacity=0.02, curve_exponent=2.0)
        for x in (0.001, 0.005, 0.02, 0.1):
            r = analytic_pdr(m, END, x)
            assert delivery_model(m, END, r) == pytest.approx(1 - x, abs=1e-9)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            analytic_pdr(model(), END, 0.0)


class TestRunTrial:
    def test_noiseless_counts(self, end_template):
        m = model(loss_at_capacity=0.01, curve_exponent=4.0)
        sample = SimDriver(m, END, end_template).run_trial(1_000_000, 10.0)
        assert sample.tx_packets == 10_000_000
        expected = round(10_000_000 * delivery_model(m, END, 1_000_000))
        assert sample.rx_packets == expected
        assert sample.duration_s == 10.0

    def test_forward_that_does_not_round_trip_fails(self, end_template, nonconforming_end):
        message = (
            "End does not conform: IPv6Header next header 59 is followed by "
            "SegmentRoutingHeader: decode would read a payload or nothing"
        )
        with pytest.raises(Srv6BenchError, match=f"^{re.escape(message)}$"):
            SimDriver(model(), END, end_template).run_trial(1_000_000, 1.0)

    def test_misnested_test_packet_is_refused_when_the_driver_is_built(self, end_template):
        # the payload ahead of the inner IPv6 header still satisfies End's
        # traffic requirement; encode refuses it before any trial
        *outer, inner, payload = end_template.layers
        misnested = PacketTemplate((*outer, payload, inner))
        with pytest.raises(Srv6BenchError, match="^payload must be the innermost layer$"):
            SimDriver(model(), END, misnested)

    @pytest.mark.parametrize(
        "rate, duration",
        [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
         (1e6, 0.0), (1e6, -1.0), (1e6, math.nan), (1e6, math.inf),
         (1e300, 1e300)],
    )
    def test_rate_and_duration_must_be_positive_and_finite(self, end_template, rate, duration):
        # checked as `<= 0`, an infinite rate raised OverflowError from
        # round(), a NaN rate round()'s own ValueError, and a NaN duration
        # got through; a finite pair whose product overflows raised OverflowError
        driver = SimDriver(model(), END, end_template)
        with pytest.raises(ValueError, match="^rate and duration must be positive and finite$"):
            driver.run_trial(rate, duration)

    def test_template_mismatch_rejected(self, dt6_template):
        # a decap packet (Segments Left 0) cannot exercise End; the driver
        # refuses it when it is built, before any trial
        with pytest.raises(Srv6BenchError, match="^template does not satisfy the End traffic requirement$"):
            SimDriver(model(), END, dt6_template)

    def test_unknown_capacity_rejected(self, end_template):
        m = ForwarderModel({BehaviorId.END_T: 1e6})
        with pytest.raises(Srv6BenchError, match="^no capacity configured for End$"):
            SimDriver(m, END, end_template)

    def test_exhausted_hop_limit_blackholes(self, end_template):
        layers = list(end_template.layers)
        layers[1] = replace(layers[1], hop_limit=1)
        t = PacketTemplate(tuple(layers))
        forwarded, _ = apply_behavior(END, t)
        assert forwarded.layers[1].hop_limit == 0
        assert SimDriver(model(), END, t).run_trial(1_000_000, 1.0).rx_packets == 0

    def test_noise_never_exceeds_offered(self, end_template):
        d = SimDriver(model(noise_sigma=0.5, seed=9), END, end_template)
        for _ in range(50):
            s = d.run_trial(4_900_000, 1.0)
            assert 0 <= s.rx_packets <= s.tx_packets


def draws(seed=5, behavior=END):
    """rx counts of 8 successive trials at one rate: probed near capacity,
    where expected loss is ~1%, so small draws cannot clamp."""
    m = ForwarderModel({behavior: 5_000_000}, noise_sigma=0.002, seed=seed)
    t = build_test_packet(traffic_requirement(behavior), [SID1, SID2])
    d = SimDriver(m, behavior, t)
    return [d.run_trial(4_900_000, 10.0).rx_packets for _ in range(8)]


class TestSimDriver:
    def test_same_seed_and_behavior_draw_the_same_sequence(self):
        first = draws()
        assert first == draws()
        assert len(set(first)) > 1

    def test_seed_or_behavior_changes_the_sequence(self):
        assert draws(seed=6) != draws()
        assert draws(behavior=BehaviorId.END_T) != draws()

    def test_repeat_trials_draw_fresh_noise_and_two_fresh_drivers_agree(self, end_template):
        m = model(noise_sigma=0.01, seed=3)
        d = SimDriver(m, END, end_template)
        first = [d.run_trial(3_000_000, 10.0) for _ in range(4)]
        assert len({s.rx_packets for s in first}) > 1
        d = SimDriver(m, END, end_template)
        again = [d.run_trial(3_000_000, 10.0) for _ in range(4)]
        assert first == again

    def test_one_generator_per_noisy_driver_none_when_noiseless(
        self, end_template, monkeypatch
    ):
        seeds = []

        class SeedRecorder(random.Random):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(random, "Random", SeedRecorder)
        for _ in range(2):
            d = SimDriver(model(), END, end_template)
            for _ in range(5):
                d.run_trial(4_900_000, 1.0)
        assert seeds == []
        for _ in range(2):
            d = SimDriver(model(noise_sigma=0.01, seed=3), END, end_template)
            for _ in range(5):
                d.run_trial(4_900_000, 1.0)
        assert seeds == ["3|End", "3|End"]

    def test_draws_have_the_configured_spread(self, end_template):
        # at twice the capacity the delivery ratio is 0.495, so neither
        # the 0 clamp nor the tx clamp binds at sigma 0.01
        sigma, n = 0.01, 2000
        m = model(noise_sigma=sigma, seed=11)
        d = SimDriver(m, END, end_template)
        expected = 100_000_000 * delivery_model(m, END, 10_000_000)
        dev = [d.run_trial(10_000_000, 10.0).rx_packets / expected - 1.0 for _ in range(n)]
        assert abs(statistics.fmean(dev)) <= 4 * sigma / math.sqrt(n)
        assert statistics.stdev(dev) == pytest.approx(sigma, rel=0.1)


class TestModelValidation:
    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ForwarderModel({END: 0})

    def test_bad_loss(self):
        with pytest.raises(ValueError):
            model(loss_at_capacity=1.0)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            model(curve_exponent=0.5)


def test_headend_behavior_needs_config(end_template):
    """A config without a SID list overrides the address plan's, and the
    headend transform cannot run on it; the sim surfaces this as a
    requirement violation, not silence."""
    req = traffic_requirement(BehaviorId.H_ENCAPS)
    t = build_test_packet(req, [])
    m = ForwarderModel(
        {BehaviorId.H_ENCAPS: 1e6}, behavior_config={BehaviorId.H_ENCAPS: BehaviorConfig()}
    )
    with pytest.raises(Srv6BenchError, match="^headend behavior needs a SID list$"):
        SimDriver(m, BehaviorId.H_ENCAPS, t).run_trial(1_000_000, 1.0)


MEASURED = [spec.id for spec in catalog() if spec.measured]
MIN_INNER_SIZE = {
    InnerKind.IPV6: IPV6_HEADER_LEN,
    InnerKind.IPV4: IPV4_HEADER_LEN,
    InnerKind.ETHERNET: ETHERNET_LEN + IPV6_HEADER_LEN,
}


@given(data=st.data())
def test_every_measured_template_and_its_forward_round_trip(data):
    """A measured behavior's template and its forwarded packet survive the
    codec, and a driver builds on the template and runs a trial. A
    conformance check done once per driver relies on this."""
    behavior = data.draw(st.sampled_from(MEASURED))
    req = traffic_requirement(behavior)
    size = data.draw(st.integers(MIN_INNER_SIZE[req.inner_kind], 1400))
    sids = data.draw(
        st.lists(st.binary(min_size=16, max_size=16).map(Sid), min_size=req.min_sids, max_size=6)
    )
    template = build_test_packet(replace(req, inner_packet_size=size), sids)
    configs = default_behavior_configs()
    forwarded, _ = apply_behavior(behavior, template, configs.get(behavior))
    assert decode(encode(template)) == template
    assert decode(encode(forwarded)) == forwarded

    m = ForwarderModel({behavior: 1e6}, behavior_config=configs)
    sample = SimDriver(m, behavior, template).run_trial(500_000, 1.0)
    assert sample.tx_packets == 500_000
    assert sample.rx_packets == round(500_000 * delivery_model(m, behavior, 500_000))


@pytest.mark.parametrize("behavior", MEASURED, ids=str)
def test_a_bare_model_drives_every_measured_behavior(behavior):
    """A model with no behavior_config runs each behavior on the address
    plan, the headend behaviors on its SID list."""
    m = ForwarderModel({behavior: 1e6})
    sample = SimDriver(m, behavior, packet_for(behavior)).run_trial(500_000, 1.0)
    assert sample.tx_packets == 500_000
    assert sample.rx_packets == round(500_000 * delivery_model(m, behavior, 500_000))

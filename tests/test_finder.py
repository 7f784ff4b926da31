"""Search-algorithm tests: scripted drivers for the repetition policy,
the simulated forwarder plus its closed-form inversion as an oracle for
the searches themselves."""

import itertools
import math
import operator
from functools import reduce

import pytest
from hypothesis import example, given, strategies as st

from srv6bench.catalog import BehaviorId, traffic_requirement
from srv6bench.errors import ExperimentAbortedError, Srv6BenchError
from srv6bench.finder import (
    FLAG_BELOW_SEARCH_FLOOR,
    FLAG_LINE_RATE_LIMITED,
    RateInterval,
    SearchConfig,
    SpreadPool,
    TrialPolicy,
    evaluate_point,
    find_pdr,
    find_pdr_legacy,
    validate_pdr,
)
from srv6bench.packet import build_test_packet
from srv6bench.ratemath import TrialSample, delivery_ratio, summarize, t_95
from srv6bench.simulator import ForwarderModel, SimDriver, analytic_pdr
from conftest import SID1, SID2, LPR_64, CountingDriver

END = BehaviorId.END
TEMPLATE = build_test_packet(traffic_requirement(END), [SID1, SID2])


def sim_driver(capacity, **kw):
    m = ForwarderModel({END: capacity}, **kw)
    return SimDriver(m, END, TEMPLATE)


class ScriptedDriver:
    """Returns canned (tx, rx) pairs; records every requested rate."""

    def __init__(self, samples):
        self.samples = list(samples)
        self.calls = []

    def run_trial(self, rate_pps, duration_s):
        self.calls.append(rate_pps)
        tx, rx = self.samples.pop(0)
        return TrialSample(tx_packets=tx, rx_packets=rx, duration_s=duration_s)


class TestRateInterval:
    def test_midpoint_and_width(self):
        iv = RateInterval(100.0, 300.0)
        assert iv.midpoint_pps == 200.0
        assert iv.width_pps == 200.0

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            RateInterval(2.0, 1.0)


class TestEvaluatePoint:
    POLICY = TrialPolicy()

    def test_single_trial_when_clean(self):
        d = ScriptedDriver([(1000, 1000)])
        dr, used = evaluate_point(d, 100.0, 10.0, 0.005, self.POLICY)
        assert (dr, used) == (1.0, 1)

    def test_single_trial_when_clearly_failing(self):
        d = ScriptedDriver([(1000, 800)])
        dr, used = evaluate_point(d, 100.0, 10.0, 0.005, self.POLICY)
        assert dr == 0.8
        assert used == 1

    def test_near_band_triggers_five_trials(self):
        # DR 0.995 sits on the threshold: repeat to 5, accept the mean
        d = ScriptedDriver([(100000, 99500)] * 5)
        dr, used = evaluate_point(d, 100.0, 10.0, 0.005, self.POLICY)
        assert used == 5
        assert dr == pytest.approx(0.995)

    @pytest.mark.parametrize("rx", [99600, 99400], ids=["pass", "fail"])
    def test_noiseless_near_band_rate_stops_after_two(self, rx):
        # equal DRs have no spread, so two of them decide the threshold
        d = ScriptedDriver([(100000, rx)] * 5)
        dr, used = evaluate_point(d, 100.0, 10.0, 0.005, self.POLICY)
        assert used == 2
        assert dr == pytest.approx(rx / 100000)

    def test_near_band_rate_of_the_quickstart_model_takes_two_trials(self):
        d = CountingDriver(sim_driver(900_000))
        dr, used = evaluate_point(d, 691253.0637254902, 10.0, 0.005, self.POLICY)
        assert abs(dr - 0.995) <= self.POLICY.near_band
        assert used == d.trials == 2

    @pytest.mark.parametrize("side", [1, -1], ids=["pass", "fail"])
    @pytest.mark.parametrize("gap, used", [(0.0014, 1), (0.00137, 2)], ids=["outside", "inside"])
    def test_pooled_stop_uses_t_of_the_pooled_and_own_df(self, side, gap, used):
        # a pool of 4 df with s = 0.0005 puts one DR's half-width at
        # t_95(4) * 0.0005 = 0.0013882 from the pass mark: a DR just
        # outside it decides alone (t_95(3) would not), one just inside
        # needs a second, equal DR, after which 5 df decide (t_95(5) would
        # have decided the first)
        pool = SpreadPool(squares=4 * 0.0005**2, df=4)
        rx = round(1_000_000 * (0.995 + side * gap))
        d = ScriptedDriver([(1_000_000, rx)] * 5)
        dr, n = evaluate_point(d, 100.0, 10.0, 0.005, self.POLICY, pool)
        assert (dr, n) == (rx / 1_000_000, used)
        assert pool == SpreadPool(squares=4 * 0.0005**2, df=4 + used - 1)

    def test_a_batch_the_cv_cap_discards_adds_nothing_to_the_pool(self):
        # the first batch swings 30 % and is discarded after 5 trials; the
        # second decides on 2 equal DRs, as it would with no batch before it
        wild = [(100000, 99500), (100000, 70000)] * 2 + [(100000, 99500)]
        d = ScriptedDriver(wild + [(100000, 99400)] * 5)
        pool = SpreadPool()
        dr, used = evaluate_point(d, 100.0, 10.0, 0.005, self.POLICY, pool)
        assert (dr, used) == (0.994, 7)
        assert pool == SpreadPool(squares=0.0, df=1)

    def test_unstable_batches_exhaust_and_raise(self):
        # rx rates with ~30% swing keep the CV above the 1% cap in every
        # batch: 1 + 4 + 5 + 5 = 15 trials, then the error
        wild = [(100000, 99500), (100000, 70000)] * 8
        d = ScriptedDriver(wild)
        with pytest.raises(Srv6BenchError, match="rx rate CV stayed above"):
            evaluate_point(d, 100.0, 10.0, 0.005, self.POLICY)
        assert len(d.calls) == 15

    def test_dr_of_one_never_repeats_even_at_zero_threshold(self):
        d = ScriptedDriver([(1000, 1000)])
        dr, used = evaluate_point(d, 100.0, 10.0, 0.0, self.POLICY)
        assert (dr, used) == (1.0, 1)

    def test_rejects_nonpositive_rate(self):
        # NaN and infinity fail too, before any trial
        for rate in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^tx rate must be positive and finite$"):
                evaluate_point(ScriptedDriver([]), rate, 10.0, 0.005, self.POLICY)

    def test_seeded_noise_repetition_counts(self):
        # frozen model: at the analytic PDR the DR lands in the band and
        # exactly 5 trials run; at half that rate a single trial stands
        m = ForwarderModel({END: 5_000_000}, noise_sigma=0.001, seed=0)
        rate = analytic_pdr(m, END, 0.005)
        d = SimDriver(m, END, TEMPLATE)
        dr, used = evaluate_point(d, rate, 10.0, 0.005, self.POLICY)
        assert used == 5
        assert abs(dr - 0.995) <= 0.0025
        d2 = SimDriver(m, END, TEMPLATE)
        _, used2 = evaluate_point(d2, rate * 0.5, 10.0, 0.005, self.POLICY)
        assert used2 == 1

    def test_few_near_band_batches_stop_early_at_the_threshold(self):
        # criterion 6's model at the exact threshold rate, 2000 seeds: the
        # expected DR sits on the pass mark, so every batch that stops
        # before policy.repetitions decided on noise alone
        rate = analytic_pdr(ForwarderModel({END: 5_000_000}), END, 0.005)
        batches = early = 0
        for seed in range(2000):
            m = ForwarderModel({END: 5_000_000}, noise_sigma=0.001, seed=seed)
            _, used = evaluate_point(SimDriver(m, END, TEMPLATE), rate, 10.0, 0.005, self.POLICY)
            if used > 1:
                batches += 1
                early += used < self.POLICY.repetitions
        assert early <= 0.15 * batches

    def test_the_early_stop_shares_the_readme_quotes(self):
        # criterion 6's model at the exact threshold rate, 2000 seeds. A
        # search's first near-band batch stops before policy.repetitions on
        # its own in 245 of 1967 seeds; a second batch at the same rate, on
        # the spread the first pooled, in 325 of 1944. README quotes both
        rate = analytic_pdr(ForwarderModel({END: 5_000_000}), END, 0.005)

        class FirstDr:
            def __init__(self, inner):
                self.inner, self.drs = inner, []

            def run_trial(self, rate_pps, duration_s):
                sample = self.inner.run_trial(rate_pps, duration_s)
                self.drs.append(delivery_ratio(sample))
                return sample

        def in_band(dr):
            return dr != 1.0 and abs(dr - 0.995) <= self.POLICY.near_band

        standalone, pooled = [0, 0], [0, 0]
        for seed in range(2000):
            m = ForwarderModel({END: 5_000_000}, noise_sigma=0.001, seed=seed)
            d, pool = FirstDr(SimDriver(m, END, TEMPLATE)), SpreadPool()
            for counts in (standalone, pooled):
                d.drs = []
                _, used = evaluate_point(d, rate, 10.0, 0.005, self.POLICY, pool)
                if not in_band(d.drs[0]):
                    break
                counts[0] += 1
                counts[1] += used < self.POLICY.repetitions
        assert standalone == [1967, 245]
        assert pooled == [1944, 325]

    def test_seeded_heavy_noise_is_unstable(self):
        # sigma 0.2 swamps the 1% CV cap; the seed is the first whose first
        # draw lands inside the band, so the repetition path actually runs
        rate = analytic_pdr(ForwarderModel({END: 5_000_000}), END, 0.005)

        def driver(seed):
            m = ForwarderModel({END: 5_000_000}, noise_sigma=0.2, seed=seed)
            return SimDriver(m, END, TEMPLATE)

        def first_in_band(seed):
            dr = delivery_ratio(driver(seed).run_trial(rate, 10.0))
            return abs(dr - 0.995) <= self.POLICY.near_band

        seed = next((s for s in range(1000) if first_in_band(s)), None)
        assert seed is not None
        d = CountingDriver(driver(seed))
        with pytest.raises(Srv6BenchError, match="rx rate CV stayed above"):
            evaluate_point(d, rate, 10.0, 0.005, self.POLICY)
        assert d.trials == 15


def reference_evaluate_point(driver, tx_rate_pps, duration_s, loss_threshold, policy):
    """evaluate_point's rule written out plainly: a trial stands alone at
    DR 1 or outside the near band; otherwise each batch runs until
    two or more DRs pass the Student-t stop or the batch holds
    policy.repetitions, its mean DR (added left to right) is taken if
    summarize's CV of its rx rates is within the cap, and after
    policy.retry_cap batches the point fails."""
    pass_mark = 1.0 - loss_threshold

    def decided(drs):
        n = len(drs)
        if n < 2:
            return False
        devs = [x - drs[0] for x in drs]
        mean_dev = math.fsum(devs) / n
        gap = drs[0] - pass_mark + mean_dev
        squares = math.fsum((d - mean_dev) ** 2 for d in devs)
        return gap * gap * n * (n - 1) > t_95(n - 1) ** 2 * squares

    sample = driver.run_trial(tx_rate_pps, duration_s)
    dr = delivery_ratio(sample)
    if dr == 1.0 or abs(dr - pass_mark) > policy.near_band:
        return dr, 1
    trials_used, samples, drs = 1, [sample], [dr]
    for _ in range(policy.retry_cap):
        while len(samples) < policy.repetitions and not decided(drs):
            samples.append(driver.run_trial(tx_rate_pps, duration_s))
            drs.append(delivery_ratio(samples[-1]))
            trials_used += 1
        if summarize([s.throughput_pps for s in samples]).cv_percent <= policy.max_rx_cv_percent:
            return reduce(operator.add, drs) / len(drs), trials_used
        samples, drs = [], []
    raise Srv6BenchError(
        f"rx rate CV stayed above {policy.max_rx_cv_percent}% after {policy.retry_cap} batches"
    )


@st.composite
def scripted_points(draw):
    """A policy, a loss threshold and enough scripted (tx, rx) trials for
    the longest run of batches. The rx counts sit at the pass mark, the
    near-band edges (one packet either side) and DR 1, repeat exactly, or
    spread by up to 3 % of tx, so batches stop early or run full and land
    on both sides of the rx CV cap."""
    policy = TrialPolicy(
        near_band=draw(st.sampled_from([0.0025, 0.01])),
        repetitions=draw(st.integers(2, 6)),
        max_rx_cv_percent=draw(st.sampled_from([0.0, 0.05, 1.0])),
        retry_cap=draw(st.integers(1, 3)),
    )
    loss_threshold = draw(st.sampled_from([0.0, 0.001, 0.005, 0.02]))
    tx = draw(st.integers(1, 10**7))
    pass_mark = 1.0 - loss_threshold
    marks = [pass_mark, pass_mark - policy.near_band, pass_mark + policy.near_band, 1.0]
    anchors = sorted({min(tx, max(0, round(tx * m) + d)) for m in marks for d in (-1, 0, 1)})
    spread = max(1, tx * 3 // 100)
    rx = st.sampled_from(anchors) | st.integers(anchors[0] - spread, anchors[-1]).map(
        lambda r: min(tx, max(0, r))
    )
    trials = policy.retry_cap * policy.repetitions
    repeat = draw(st.booleans())
    if repeat:  # one count for every trial: equal DRs
        rxs = [draw(rx)] * trials
    else:
        rxs = draw(st.lists(rx, min_size=trials, max_size=trials))
    return policy, loss_threshold, [(tx, r) for r in rxs]


def _outcome(evaluate, policy, loss_threshold, script):
    driver = ScriptedDriver(script)
    try:
        result = evaluate(driver, 1000.0, 10.0, loss_threshold, policy)
    except Srv6BenchError as exc:
        result = (type(exc), str(exc))
    return result, len(driver.calls)


@given(point=scripted_points())
@example(point=(TrialPolicy(), 0.005, [(100000, 99500)] * 15))  # equal DRs on the pass mark
@example(point=(TrialPolicy(), 0.005, [(100000, 99600), (100000, 99400)] * 8))
@example(point=(TrialPolicy(), 0.005, [(100000, 99500), (100000, 70000)] * 8))  # CV cap exhausted
def test_evaluate_point_follows_the_written_out_rule(point):
    policy, loss_threshold, script = point
    got = _outcome(evaluate_point, policy, loss_threshold, script)
    want = _outcome(reference_evaluate_point, policy, loss_threshold, script)
    assert got == want


class TestBinarySearch:
    def test_sharp_knee_against_oracle(self):
        d = sim_driver(5_000_000, loss_at_capacity=0.0)
        result = find_pdr(d, LPR_64)
        oracle = 5_000_000 / 0.995
        eps = LPR_64 / 100.0
        assert result.interval.width_pps <= eps
        assert result.interval.low_pps <= oracle <= result.interval.high_pps
        assert result.flags == ()

    def test_ramp_against_oracle(self):
        d = sim_driver(5_000_000, loss_at_capacity=0.01, curve_exponent=4.0)
        result = find_pdr(d, LPR_64)
        m = ForwarderModel({END: 5_000_000})
        oracle = analytic_pdr(m, END, 0.005)
        assert result.interval.low_pps <= oracle <= result.interval.high_pps

    def test_at_most_seven_probed_rates_with_defaults(self):
        d = sim_driver(5_000_000)
        result = find_pdr(d, LPR_64)
        assert len({e.tx_rate_pps for e in result.trace.entries}) <= 7

    def test_window_halves_each_iteration(self):
        d = sim_driver(5_000_000)
        result = find_pdr(d, LPR_64)
        # after k iterations the window is (max-min)% of LPR over 2^k
        k = len(result.trace.entries)
        initial = LPR_64 * 99 / 100.0
        assert result.interval.width_pps == pytest.approx(initial / 2**k)
        # and the first probe sat dead centre of the initial window
        assert result.trace.entries[0].tx_rate_pps == pytest.approx(
            (LPR_64 / 100.0 + LPR_64) / 2.0
        )

    def test_line_rate_limited_flag(self):
        d = sim_driver(2 * LPR_64)
        result = find_pdr(d, LPR_64)
        assert FLAG_LINE_RATE_LIMITED in result.flags
        assert result.interval.high_pps == pytest.approx(LPR_64)
        assert result.interval.low_pps >= LPR_64 * (1 - 1 / 100.0) - 1e-6

    def test_below_search_floor_flag(self):
        # PDR far below 1% of line rate: every probe fails
        d = sim_driver(30_000, loss_at_capacity=0.0)
        result = find_pdr(d, LPR_64)
        assert FLAG_BELOW_SEARCH_FLOOR in result.flags
        assert result.interval.low_pps == pytest.approx(LPR_64 / 100.0)

    def test_ndr_is_pdr_at_zero_threshold(self):
        d = sim_driver(5_000_000, loss_at_capacity=0.0)
        cfg = SearchConfig(loss_threshold=0.0)
        result = find_pdr(d, LPR_64, cfg)
        # with a sharp knee the no-drop rate is the capacity itself
        assert result.interval.low_pps <= 5_000_000 <= result.interval.high_pps

    def test_a_window_no_wider_than_the_accuracy_is_refused(self):
        # bisecting it would run no trial and report a window never measured
        cfg = SearchConfig(min_percent=50, max_percent=50.5, accuracy_percent=1)
        d = CountingDriver(sim_driver(900_000))
        message = "^accuracy_percent must be below max_percent - min_percent$"
        with pytest.raises(ValueError, match=message):
            find_pdr(d, LPR_64, cfg)
        assert d.trials == 0
        # the legacy finder probes the floor first, so it measures the window
        assert find_pdr_legacy(d, LPR_64, cfg).trace.entries

    def test_driver_failure_becomes_aborted_experiment(self):
        class DeadDriver:
            def run_trial(self, rate_pps, duration_s):
                raise Srv6BenchError("gone")

        message = "^search aborted at [0-9]+ pps: gone$"
        with pytest.raises(ExperimentAbortedError, match=message) as info:
            find_pdr(DeadDriver(), LPR_64)
        assert [t.entries for t in info.value.traces] == [[]]


class TestLegacySearch:
    def test_agrees_with_oracle(self):
        d = sim_driver(5_000_000, loss_at_capacity=0.0)
        result = find_pdr_legacy(d, LPR_64)
        oracle = 5_000_000 / 0.995
        eps = LPR_64 / 100.0
        assert result.interval.width_pps <= eps
        assert result.interval.low_pps <= oracle <= result.interval.high_pps

    def test_step_budget_thirteen(self):
        # capacity just under line rate forces the longest doubling run
        d = sim_driver(0.99 * LPR_64, loss_at_capacity=0.0)
        result = find_pdr_legacy(d, LPR_64)
        assert len({e.tx_rate_pps for e in result.trace.entries}) <= 13

    def test_doubling_phase_is_exponential(self):
        d = sim_driver(5_000_000, loss_at_capacity=0.0)
        result = find_pdr_legacy(d, LPR_64)
        rates = [e.tx_rate_pps for e in result.trace.entries]
        floor = LPR_64 / 100.0
        k = 0
        while k + 1 < len(rates) and rates[k + 1] == pytest.approx(2 * rates[k]):
            k += 1
        # at least two doublings before the first failure at C ~= 41% LPR
        assert rates[0] == pytest.approx(floor)
        assert k >= 2

    def test_floor_failure_collapses_interval(self):
        d = sim_driver(30_000, loss_at_capacity=0.0)
        result = find_pdr_legacy(d, LPR_64)
        assert result.flags == (FLAG_BELOW_SEARCH_FLOOR,)
        assert result.interval.low_pps == result.interval.high_pps
        assert result.interval.low_pps == pytest.approx(LPR_64 / 100.0)

    def test_line_rate_limited_flag(self):
        d = sim_driver(2 * LPR_64)
        result = find_pdr_legacy(d, LPR_64)
        assert result.flags == (FLAG_LINE_RATE_LIMITED,)
        assert result.interval.high_pps == pytest.approx(LPR_64)


class ByDuration:
    """Delivery ratio by trial length: `short` for a screening trial, `full`
    for a full-duration one. Records every (rate, duration) offered."""

    def __init__(self, short, full, full_s=10.0):
        self.short, self.full, self.full_s = short, full, full_s
        self.calls = []

    def run_trial(self, rate_pps, duration_s):
        self.calls.append((rate_pps, duration_s))
        tx = round(rate_pps * duration_s)
        dr = self.full if duration_s >= self.full_s else self.short
        return TrialSample(tx_packets=tx, rx_packets=round(tx * dr), duration_s=duration_s)


class NearBandScreensLie:
    """Passes full-duration trials to the wrapped driver unchanged. A
    screening trial whose honest DR sits in the near band reads half the
    band away on the other side of the pass mark."""

    def __init__(self, inner, cfg, near_band=TrialPolicy().near_band):
        self.inner, self.full_s, self.near_band = inner, cfg.trial_duration_s, near_band
        self.pass_mark = 1.0 - cfg.loss_threshold
        self.calls, self.lies = [], 0

    def run_trial(self, rate_pps, duration_s):
        self.calls.append((rate_pps, duration_s))
        sample = self.inner.run_trial(rate_pps, duration_s)
        dr = delivery_ratio(sample)
        if duration_s >= self.full_s or abs(dr - self.pass_mark) > self.near_band:
            return sample
        self.lies += 1
        shift = self.near_band / 2
        wrong = self.pass_mark - shift if dr >= self.pass_mark else self.pass_mark + shift
        rx = round(sample.tx_packets * wrong)
        return TrialSample(tx_packets=sample.tx_packets, rx_packets=rx, duration_s=duration_s)


class ScreensReadOff:
    """Adds `shift` to the delivery ratio of every screening trial of the
    wrapped driver, as a forwarder whose buffers absorb a short burst
    (shift > 0) or that loses packets while warming up (shift < 0)."""

    def __init__(self, inner, shift, full_s=10.0):
        self.inner, self.shift, self.full_s = inner, shift, full_s

    def run_trial(self, rate_pps, duration_s):
        sample = self.inner.run_trial(rate_pps, duration_s)
        if duration_s >= self.full_s:
            return sample
        dr = min(1.0, delivery_ratio(sample) + self.shift)
        rx = round(sample.tx_packets * dr)
        return TrialSample(tx_packets=sample.tx_packets, rx_packets=rx, duration_s=duration_s)


class ScreensPassAboveTheKnee:
    """Full-duration trials read DR 1 up to `knee` and 0.98 above it. A
    screening trial between `knee` and `lie_top` reads 0.996, just over
    the 0.995 pass mark. Records every (rate, duration) offered."""

    def __init__(self, knee, lie_top, full_s=10.0):
        self.knee, self.lie_top, self.full_s = knee, lie_top, full_s
        self.calls = []

    def run_trial(self, rate_pps, duration_s):
        self.calls.append((rate_pps, duration_s))
        tx = round(rate_pps * duration_s)
        if rate_pps <= self.knee:
            dr = 1.0
        elif rate_pps <= self.lie_top and duration_s < self.full_s:
            dr = 0.996
        else:
            dr = 0.98
        return TrialSample(tx_packets=tx, rx_packets=round(tx * dr), duration_s=duration_s)


class NearBandAboveTheKnee:
    """DR 1 up to `knee` and 0.98 above `top`. Between them a screening
    trial reads 0.996, just over the 0.995 pass mark, and full-duration
    trials read the DRs of `full` in turn, round and round. Records every
    (rate, duration) offered."""

    def __init__(self, knee, top, full, full_s=10.0):
        self.knee, self.top, self.full, self.full_s = knee, top, itertools.cycle(full), full_s
        self.calls = []

    def run_trial(self, rate_pps, duration_s):
        self.calls.append((rate_pps, duration_s))
        tx = round(rate_pps * duration_s)
        if rate_pps <= self.knee:
            dr = 1.0
        elif rate_pps > self.top:
            dr = 0.98
        else:
            dr = next(self.full) if duration_s >= self.full_s else 0.996
        return TrialSample(tx_packets=tx, rx_packets=round(tx * dr), duration_s=duration_s)


class TestScreening:
    CFG = SearchConfig()

    @pytest.mark.parametrize("algorithm", [find_pdr, find_pdr_legacy], ids=["binary", "legacy"])
    @pytest.mark.parametrize(
        "short, full, flag",
        [(1.0, 0.9, FLAG_BELOW_SEARCH_FLOOR), (0.9, 1.0, FLAG_LINE_RATE_LIMITED)],
        ids=["screens-pass", "screens-fail"],
    )
    def test_no_bound_rests_on_a_screen_alone(self, algorithm, short, full, flag):
        # every screen disagrees with the full-duration trials at its rate
        d = ByDuration(short, full)
        result = algorithm(d, LPR_64, self.CFG)
        screen_s = self.CFG.trial_duration_s / 10
        assert {s for _, s in d.calls} == {screen_s, self.CFG.trial_duration_s}
        full_rates = {r for r, s in d.calls if s == self.CFG.trial_duration_s}
        probed = {e.tx_rate_pps for e in result.trace.entries}
        iv = result.interval
        assert {iv.low_pps, iv.high_pps} & probed
        for bound in {iv.low_pps, iv.high_pps} & probed:
            assert bound in full_rates
        # the full-duration verdict is the one reported
        assert result.flags == (flag,)
        for e in result.trace.entries:
            if e.tx_rate_pps in full_rates:
                assert e.delivery_ratio == pytest.approx(full, abs=1e-6)
                assert e.decision == ("raise-low" if full == 1.0 else "lower-high")
        assert iv.width_pps <= LPR_64 / 100.0

    def test_near_band_screen_is_left_out_of_the_mean(self):
        d = ByDuration(0.996, 0.994)
        result = find_pdr(d, LPR_64, self.CFG)
        # every rate is one screen, then full-duration trials that decide:
        # two for the search's first batch, then one on the pooled spread
        costs = sorted((e.repetitions, e.testbed_s) for e in result.trace.entries)
        assert costs == [(2, 11.0)] * (len(costs) - 1) + [(3, 21.0)]
        for e in result.trace.entries:
            assert e.delivery_ratio == pytest.approx(0.994, abs=1e-6)
            assert e.decision == "lower-high"

    @pytest.mark.parametrize("algorithm", [find_pdr, find_pdr_legacy], ids=["binary", "legacy"])
    @pytest.mark.parametrize("capacity", [900_000, 5_000_000])
    def test_wrong_near_band_screens_cost_trials_not_the_interval(self, algorithm, capacity):
        # a screen decides a near-band rate only provisionally: the bounds
        # reported are the ones the honest full-duration trials give
        m = ForwarderModel({END: capacity})
        d = NearBandScreensLie(SimDriver(m, END, TEMPLATE), self.CFG)
        result = algorithm(d, LPR_64, self.CFG)
        assert d.lies
        iv = result.interval
        assert iv.width_pps <= LPR_64 / 100.0
        assert iv.low_pps <= analytic_pdr(m, END, self.CFG.loss_threshold) <= iv.high_pps
        assert result.flags == ()
        full_rates = {r for r, s in d.calls if s == self.CFG.trial_duration_s}
        assert {iv.low_pps, iv.high_pps} <= full_rates

    @pytest.mark.parametrize(
        "algorithm, shift, cost",
        [
            (find_pdr, 0.002, (18, 81.0)),
            (find_pdr_legacy, 0.002, (25, 88.0)),
            (find_pdr, -0.002, (18, 90.0)),
            (find_pdr_legacy, -0.002, (22, 76.0)),
        ],
        ids=["binary-high", "legacy-high", "binary-low", "legacy-low"],
    )
    def test_screens_that_read_off_stop_steering_after_an_overturn(self, algorithm, shift, cost):
        # every screen reads 0.002 off, so near-band screens steer the
        # search wrong until a confirmation overturns one. After that no
        # near-band screen decides a rate, and the window bounds one alone
        # decided are confirmed before the halving goes on. Measuring every
        # near-band rate at full duration costs 57, 62, 67 and 72
        # testbed-seconds here; trusting screens to the end, 115, 133, 134
        # and 186
        lpr = 10e9 / (8.0 * (158 + 24))  # End's 158 B frame
        honest = algorithm(sim_driver(5_000_000), lpr)
        d = CountingDriver(ScreensReadOff(sim_driver(5_000_000), shift))
        result = algorithm(d, lpr)
        assert result.interval == honest.interval
        assert result.flags == honest.flags == ()
        assert (d.trials, d.seconds) == cost

    def test_an_abort_keeps_the_screen_of_a_distrusted_near_band_rate(self):
        # every screen reads 0.002 high: the first confirmation overturns
        # its screen in 2 trials, and the search stops trusting screens.
        # The next near-band rate, 4105855 pps, is screened, then confirmed
        # at full duration while the window is still wider than eps. When
        # that confirmation's first trial, the search's 14th, fails, the
        # partial trace keeps every rate a trial ran at, that rate's screen
        # last, as an aborted final confirmation does
        lpr = 10e9 / (8.0 * (158 + 24))  # End's 158 B frame
        full_s = self.CFG.trial_duration_s

        class FailsAt14th:
            def __init__(self):
                self.inner = ScreensReadOff(sim_driver(5_000_000), 0.002)
                self.calls = []

            def run_trial(self, rate_pps, duration_s):
                self.calls.append((rate_pps, duration_s))
                if len(self.calls) == 14:
                    raise Srv6BenchError("link down")
                return self.inner.run_trial(rate_pps, duration_s)

        d = FailsAt14th()
        with pytest.raises(ExperimentAbortedError) as info:
            find_pdr(d, lpr)
        (rate, screen_s), failed = d.calls[-2:]
        assert (round(rate), screen_s, failed) == (4105855, full_s / 10, (rate, full_s))
        assert str(info.value) == f"search aborted at {rate:.0f} pps: link down"
        (trace,) = info.value.traces
        assert [e.tx_rate_pps for e in trace.entries] == list(dict.fromkeys(r for r, _ in d.calls))
        last = trace.entries[-1]
        assert (last.tx_rate_pps, last.repetitions, last.testbed_s) == (rate, 1, screen_s)
        assert abs(last.delivery_ratio - (1.0 - self.CFG.loss_threshold)) <= TrialPolicy().near_band

    @pytest.mark.parametrize(
        "cause, reps, testbed_s", [("link down", 2, 11.0), ("unstable", 16, 151.0)]
    )
    def test_an_aborted_confirmation_keeps_the_trials_it_ran(self, cause, reps, testbed_s):
        # every screen reads 0.002 high, and the search's 8th trial is the
        # first confirmation's first, at 4583941 pps. "link down" fails the
        # 9th trial; "unstable" swings rx by 30 % on every full-duration
        # trial, so the confirmation runs retry_cap batches of 5 and gives
        # up. The confirmed entry keeps its screen's DR and decision and
        # gains every trial that returned a sample, so the partial trace
        # counts them all
        lpr = 10e9 / (8.0 * (158 + 24))  # End's 158 B frame
        full_s = self.CFG.trial_duration_s
        inner = ScreensReadOff(sim_driver(5_000_000), 0.002)
        swing = itertools.cycle([0.995, 0.7])
        durations = []

        class Failing:
            def run_trial(self, rate_pps, duration_s):
                if cause == "link down" and len(durations) == 8:
                    raise Srv6BenchError("link down")
                durations.append(duration_s)
                if cause == "unstable" and duration_s == full_s:
                    tx = round(rate_pps * duration_s)
                    return TrialSample(tx, round(tx * next(swing)), duration_s)
                return inner.run_trial(rate_pps, duration_s)

        with pytest.raises(ExperimentAbortedError, match="^search aborted at 4583941 pps: ") as info:
            find_pdr(Failing(), lpr)
        (trace,) = info.value.traces
        assert sum(e.repetitions for e in trace.entries) == len(durations)
        assert math.fsum(e.testbed_s for e in trace.entries) == math.fsum(durations)
        confirmed = trace.entries[-1]
        assert round(confirmed.tx_rate_pps) == 4583941
        assert (round(confirmed.delivery_ratio, 5), confirmed.decision) == (0.99494, "lower-high")
        assert (confirmed.repetitions, confirmed.testbed_s) == (reps, testbed_s)

    def test_the_bound_nearer_the_pass_mark_is_confirmed_first(self):
        # the first halving ends between an older high bound, whose screen
        # read 0.98, and a newer low bound, whose screen read 0.996, 0.001
        # over the pass mark. The low bound is confirmed first, its
        # full-duration trials overturn it, and the old high bound, no
        # longer a bound, never runs a full-duration trial
        knee, lie_top = 0.33 * LPR_64, 0.35 * LPR_64
        d = ScreensPassAboveTheKnee(knee, lie_top)
        result = find_pdr(d, LPR_64, self.CFG)
        old_high = min(r for r, _ in d.calls if r > lie_top)
        newest_low = max(r for r, _ in d.calls if knee < r <= lie_top)
        assert old_high - newest_low <= LPR_64 / 100.0
        full_rates = {r for r, s in d.calls if s == self.CFG.trial_duration_s}
        assert newest_low in full_rates
        assert old_high not in full_rates
        iv = result.interval
        assert iv.low_pps <= knee < iv.high_pps
        assert {iv.low_pps, iv.high_pps} <= full_rates

    @pytest.mark.parametrize(
        "full, batch, screens_decide",
        [
            # 5 DRs whose mean, 0.9948, sits inside its t interval: undecided
            ((0.994, 0.9985, 0.9915, 0.9985, 0.9915), 5, True),
            # 2 equal DRs below the pass mark decide it
            ((0.994,), 2, False),
        ],
        ids=["undecided-overturn", "decided-overturn"],
    )
    def test_only_a_decided_overturn_stops_screens_deciding_rates(self, full, batch, screens_decide):
        # the first halving ends on a low bound whose near-band screen
        # passed; its full-duration batch fails it. A batch that ran to the
        # repetitions cap undecided is no evidence that screens read off, so
        # the search still lets a later near-band screen decide its rate
        knee, top = 0.3 * LPR_64, 0.35 * LPR_64
        d = NearBandAboveTheKnee(knee, top, full)
        result = find_pdr(d, LPR_64, self.CFG)
        full_s = self.CFG.trial_duration_s
        first = next(i for i, (_, s) in enumerate(d.calls) if s == full_s)
        confirmed = list(itertools.takewhile(lambda c: c == d.calls[first], d.calls[first:]))
        assert len(confirmed) == batch
        rate = d.calls[first][0]
        assert knee < rate <= top
        entry = next(e for e in result.trace.entries if e.tx_rate_pps == rate)
        assert (entry.decision, entry.repetitions) == ("lower-high", 1 + batch)
        later = d.calls[first + batch:]
        decided_by_screen = [
            r for (r, s), (following, _) in zip(later, later[1:])
            if s < full_s and knee < r <= top and following != r
        ]
        assert bool(decided_by_screen) is screens_decide
        iv = result.interval
        assert iv.low_pps <= knee < iv.high_pps
        assert {iv.low_pps, iv.high_pps} <= {r for r, s in d.calls if s == full_s}

    def test_quickstart_end_search_cost(self):
        # 4 far rates and 1 near-band rate each decided by one screen, plus
        # 2 final bounds each a screen and full-duration trials: 2 for the
        # first bound confirmed, 1 on the pooled spread for the second
        d = CountingDriver(sim_driver(900_000))
        result = find_pdr(d, 10e9 / (8.0 * (158 + 24)))  # End's 158 B frame
        assert (d.trials, d.seconds) == (10, 37.0)
        iv = result.interval
        assert (round(iv.low_pps), round(iv.high_pps)) == (706130, 759251)

    def test_a_noiseless_search_decides_its_second_bound_on_one_full_trial(self):
        # both final bounds are near-band rates: the first confirmed takes
        # 2 equal full-duration DRs, which pool 1 degree of freedom, and on
        # that the second's single full-duration DR decides
        result = find_pdr(sim_driver(900_000), 10e9 / (8.0 * (158 + 24)))
        pass_mark = 1.0 - self.CFG.loss_threshold
        iv = result.interval
        bounds = sorted(
            (e for e in result.trace.entries if e.tx_rate_pps in (iv.low_pps, iv.high_pps)),
            key=lambda e: abs(e.delivery_ratio - pass_mark),
        )
        assert all(abs(e.delivery_ratio - pass_mark) <= TrialPolicy().near_band for e in bounds)
        assert [(e.repetitions, e.testbed_s) for e in bounds] == [(3, 21.0), (2, 11.0)]

    def test_too_short_a_trial_runs_no_screen(self):
        # at 3 ms a 0.3 ms screen offers under 10 / near_band = 4000 packets
        # even at line rate, so one packet would move its DR by more than a
        # tenth of the near band
        for duration, screened in ((10.0, True), (0.003, False)):
            d = ByDuration(1.0, 1.0, full_s=duration)
            cfg = SearchConfig(trial_duration_s=duration)
            find_pdr(d, LPR_64, cfg)
            find_pdr_legacy(d, LPR_64, cfg)
            assert any(s < duration for _, s in d.calls) is screened

    @pytest.mark.parametrize("algorithm", [find_pdr, find_pdr_legacy], ids=["binary", "legacy"])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.002])
    def test_trace_testbed_seconds_add_up_to_the_driver_s(self, algorithm, noise_sigma):
        d = CountingDriver(sim_driver(900_000, noise_sigma=noise_sigma, seed=3))
        result = algorithm(d, LPR_64)
        records = result.trace.records()
        assert sum(r["repetitions"] for r in records) == d.trials
        assert math.fsum(r["testbed_s"] for r in records) == pytest.approx(d.seconds)
        assert d.seconds < 10.0 * d.trials


class TestMonotonicity:
    def test_midpoint_rises_with_capacity(self):
        mids = []
        for c in (1_000_000, 2_000_000, 4_000_000, 8_000_000):
            d = sim_driver(c)
            mids.append(find_pdr(d, LPR_64).interval.midpoint_pps)
        assert mids == sorted(mids)


class TestValidatePdr:
    def test_noiseless_cv_is_zero(self):
        d = sim_driver(5_000_000)
        v = validate_pdr(d, LPR_64, runs=10)
        assert v.stats.n == 10
        assert v.stats.cv_percent == 0.0
        assert v.stats.ci95_percent == 0.0

    def test_seeded_noise_cv_bound(self):
        # sharp knee (exponent 128), 20 seeds. At sigma 0.005 every search
        # still ends unflagged inside the accuracy; the midpoint CV across
        # 10 runs is bounded only at sigma 0.001, where every seed meets it
        for sigma, seed in itertools.product((0.005, 0.001), range(20)):
            d = sim_driver(
                5_000_000,
                loss_at_capacity=0.01,
                curve_exponent=128.0,
                noise_sigma=sigma,
                seed=seed,
            )
            v = validate_pdr(d, LPR_64, runs=10)
            assert v.stats.n == 10
            for r in v.results:
                assert r.flags == ()
                assert r.interval.width_pps <= LPR_64 / 100.0
            if sigma == 0.001:
                assert v.stats.cv_percent <= 1.0

    @pytest.mark.parametrize("sigma, least", [(0.0, 400), (0.0005, 400), (0.002, 300)])
    def test_per_run_intervals_cover_the_pdr(self, sigma, least):
        # the shipped End curve, seeds 0-39 x 10 runs. A stop that settles
        # near-band rates on too few trials shows here as intervals that
        # miss the closed-form PDR. Noiseless, every search costs 37
        # testbed-s: 5 rates a screen decides, and 2 final bounds each a
        # screen and full-duration trials, 2 for the first and 1 for the
        # second, whose batch the first's pooled spread decides
        covered, seconds = 0, set()
        for seed in range(40):
            m = ForwarderModel({END: 900_000}, noise_sigma=sigma, seed=seed)
            pdr = analytic_pdr(m, END, 0.005)
            for r in validate_pdr(SimDriver(m, END, TEMPLATE), LPR_64, runs=10).results:
                covered += r.interval.low_pps <= pdr <= r.interval.high_pps
                seconds.add(sum(e.testbed_s for e in r.trace.entries))
        assert covered >= least
        if sigma == 0.0:
            assert seconds == {37.0}

    def test_every_run_starts_with_an_empty_pool(self):
        # each run's first near-band batch takes 2 full-duration trials;
        # a pool left by the run before would decide it on 1
        v = validate_pdr(sim_driver(900_000), LPR_64, runs=3)
        for r in v.results:
            assert sorted(e.testbed_s for e in r.trace.entries if e.testbed_s >= 10.0) == [11.0, 21.0]

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError):
            validate_pdr(sim_driver(5e6), LPR_64, runs=0)

    def test_legacy_algorithm_selectable(self):
        d = sim_driver(5_000_000, loss_at_capacity=0.0)
        v = validate_pdr(d, LPR_64, runs=3, algorithm=find_pdr_legacy)
        oracle = 5_000_000 / 0.995
        for r in v.results:
            assert r.interval.low_pps <= oracle <= r.interval.high_pps


# (tx_rate_pps, decision, repetitions) of every probe on three noiseless
# End models. Rates and decisions were recorded from the finders before
# they shared one bisection loop; repetitions were re-recorded when
# screening trials and early-stopping repeats came in: a screened far rate
# is 1 trial, a near-band rate its screen plus 2 full-duration trials (the
# fewest whose spread decides with no pooled spread), and a final bound a
# screen decided its screen plus 1 confirming trial. Binary mid_range's
# second confirmed bound, 691253 pps, was re-recorded when a search came to
# pool its near-band spread: 786037 pps's batch pools 1 degree of freedom,
# so its screen plus 1 full-duration trial decide it. A change to either
# search's probe order or trial count shows up here.
# "noisy_end" adds the shipped End curve at sigma 0.002, recorded with the
# search as it stands: its near-band batches stop after 4 or run to 5
# full-duration trials on fresh noise draws, so a change that moves a
# draw or a batch stop shows up here too.
PINNED_TRACES = {
    "mid_range": (
        (900_000, {}),
        [
            (6188725.490196079, "lower-high", 1),
            (3155637.254901961, "lower-high", 1),
            (1639093.1372549022, "lower-high", 1),
            (880821.0784313726, "lower-high", 1),
            (501685.0490196079, "raise-low", 1),
            (691253.0637254902, "raise-low", 2),
            (786037.0710784314, "lower-high", 3),
        ],
        [
            (122549.01960784315, "raise-low", 1),
            (245098.0392156863, "raise-low", 1),
            (490196.0784313726, "raise-low", 1),
            (980392.1568627452, "lower-high", 1),
            (735294.1176470589, "raise-low", 3),
            (857843.137254902, "lower-high", 2),
        ],
    ),
    "below_floor": (
        (30_000, {"loss_at_capacity": 0.0}),
        [
            (6188725.490196079, "lower-high", 1),
            (3155637.254901961, "lower-high", 1),
            (1639093.1372549022, "lower-high", 1),
            (880821.0784313726, "lower-high", 1),
            (501685.0490196079, "lower-high", 1),
            (312117.03431372554, "lower-high", 1),
            (217333.02696078434, "lower-high", 2),
        ],
        [(122549.01960784315, "lower-high", 2)],
    ),
    "line_rate_limited": (
        (2 * LPR_64, {}),
        [
            (6188725.490196079, "raise-low", 1),
            (9221813.725490198, "raise-low", 1),
            (10738357.843137257, "raise-low", 1),
            (11496629.901960786, "raise-low", 1),
            (11875765.93137255, "raise-low", 1),
            (12065333.94607843, "raise-low", 1),
            (12160117.953431372, "raise-low", 2),
        ],
        [
            (122549.01960784315, "raise-low", 1),
            (245098.0392156863, "raise-low", 1),
            (490196.0784313726, "raise-low", 1),
            (980392.1568627452, "raise-low", 1),
            (1960784.3137254904, "raise-low", 1),
            (3921568.6274509807, "raise-low", 1),
            (7843137.254901961, "raise-low", 1),
            (10049019.607843138, "raise-low", 1),
            (11151960.784313727, "raise-low", 1),
            (11703431.37254902, "raise-low", 1),
            (11979166.666666668, "raise-low", 1),
            (12117034.31372549, "raise-low", 1),
            (12185968.137254901, "raise-low", 2),
        ],
    ),
    "noisy_end": (
        (900_000, {"noise_sigma": 0.002, "seed": 9}),
        [
            (6188725.490196079, "lower-high", 1),
            (3155637.254901961, "lower-high", 1),
            (1639093.1372549022, "lower-high", 1),
            (880821.0784313726, "lower-high", 1),
            (501685.0490196079, "raise-low", 1),
            (691253.0637254902, "raise-low", 5),
            (596469.056372549, "raise-low", 1),
            (786037.0710784314, "lower-high", 6),
        ],
        [
            (122549.01960784315, "raise-low", 1),
            (245098.0392156863, "raise-low", 1),
            (490196.0784313726, "raise-low", 1),
            (980392.1568627452, "lower-high", 1),
            (735294.1176470589, "raise-low", 6),
            (612745.0980392158, "raise-low", 5),
            (551470.5882352942, "raise-low", 1),
            (857843.137254902, "lower-high", 6),
        ],
    ),
}


@pytest.mark.parametrize("model", sorted(PINNED_TRACES))
@pytest.mark.parametrize(
    "algorithm", [find_pdr, find_pdr_legacy], ids=["binary", "legacy"]
)
def test_probe_sequence_is_pinned(model, algorithm):
    (capacity, kw), binary, legacy = PINNED_TRACES[model]
    result = algorithm(sim_driver(capacity, **kw), LPR_64)
    got = [(e.tx_rate_pps, e.decision, e.repetitions) for e in result.trace.entries]
    assert got == (binary if algorithm is find_pdr else legacy)


def test_trace_serializes_to_json():
    import json

    d = sim_driver(5_000_000)
    result = find_pdr(d, LPR_64)
    doc = json.loads(json.dumps(result.trace.records()))
    assert len(doc) == len(result.trace.entries)
    assert {"tx_rate_pps", "delivery_ratio", "decision", "repetitions"} <= set(doc[0])


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(min_percent=0)
    with pytest.raises(ValueError):
        SearchConfig(min_percent=50, max_percent=40)
    with pytest.raises(ValueError):
        SearchConfig(accuracy_percent=0)
    with pytest.raises(ValueError):
        TrialPolicy(near_band=0)

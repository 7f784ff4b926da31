"""Partial-drop-rate search: pure binary search, the legacy
exponential-then-binary variant, the near-threshold repetition policy
and the multi-run validation wrapper.

Both finders return an interval [low, high] of offered rates whose width
is at most epsilon = line_packet_rate * accuracy_percent / 100, plus a
trace of every trial they ran. Each call builds one _Search, which holds
the search's state and runs its steps: probe, bisect and confirm. A short
screening trial decides each rate probed; every reported bound rests on
full-duration trials, so a wrong screen costs trials, not accuracy. Once a
confirmation overturns a screen in fewer trials than the repetitions cap,
the search stops trusting screens near the threshold. Its spread pool
lets one full-duration trial decide a later near-band rate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

from .errors import ExperimentAbortedError, Srv6BenchError
from .ratemath import SummaryStats, delivery_ratio, summarize, t_95
from .simulator import TrafficDriver

RAISE_LOW = "raise-low"
LOWER_HIGH = "lower-high"

FLAG_LINE_RATE_LIMITED = "line-rate-limited"
FLAG_BELOW_SEARCH_FLOOR = "below-search-floor"

# A screening trial lasts trial_duration_s / SCREEN_DIVISOR.
SCREEN_DIVISOR = 10


@dataclass(frozen=True)
class SearchConfig:
    """Search window and trial parameters, bounds as % of line packet rate."""

    min_percent: float = 1.0
    max_percent: float = 100.0
    accuracy_percent: float = 1.0
    loss_threshold: float = 0.005
    trial_duration_s: float = 10.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.min_percent < self.max_percent <= 100:
            raise ValueError("need 0 < min_percent < max_percent <= 100")
        if not 0 < self.accuracy_percent < math.inf:
            raise ValueError("accuracy_percent must be positive and finite")
        if not 0 <= self.loss_threshold < 1:
            raise ValueError("loss_threshold must be in [0, 1)")
        if not 0 < self.trial_duration_s < math.inf:
            raise ValueError("trial_duration_s must be positive and finite")


@dataclass(frozen=True)
class TrialPolicy:
    """When and how to repeat trials whose delivery ratio sits near the
    loss threshold."""

    near_band: float = 0.0025
    # most trials in one batch; a batch stops early once its DRs decide
    repetitions: int = 5
    max_rx_cv_percent: float = 1.0
    retry_cap: int = 3

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.near_band < math.inf:
            raise ValueError("near_band must be positive and finite")
        if not 0 <= self.max_rx_cv_percent < math.inf:
            raise ValueError("max_rx_cv_percent must be non-negative and finite")
        if self.repetitions < 2:
            raise ValueError("repetitions must be >= 2")
        if self.retry_cap < 1:
            raise ValueError("retry_cap must be >= 1")


@dataclass
class SpreadPool:
    """One search's within-batch DR spread: the sum of squared deviations
    from their batch mean, and its degrees of freedom, over the accepted
    full-duration near-band batches it has run."""

    squares: float = 0.0
    df: int = 0


@dataclass(frozen=True)
class RateInterval:
    """An offered-rate interval in pps that brackets the PDR."""

    low_pps: float
    high_pps: float

    def __post_init__(self):
        if self.low_pps > self.high_pps:
            raise ValueError("interval bounds out of order")

    @property
    def width_pps(self) -> float:
        return self.high_pps - self.low_pps

    @property
    def midpoint_pps(self) -> float:
        return (self.low_pps + self.high_pps) / 2.0


@dataclass(frozen=True)
class TraceEntry:
    """One probed rate of a search: its delivery ratio, decision and trials."""

    tx_rate_pps: float
    delivery_ratio: float
    decision: str
    # every trial run at this rate, and their seconds, screen included
    repetitions: int
    testbed_s: float


@dataclass
class FinderTrace:
    """The probed rates of one search, in the order it probed them."""

    entries: list[TraceEntry] = field(default_factory=list)

    def records(self) -> list[dict]:
        """One plain dict per entry, the form every trace file is written in."""
        return [
            {
                "tx_rate_pps": e.tx_rate_pps,
                "delivery_ratio": e.delivery_ratio,
                "decision": e.decision,
                "repetitions": e.repetitions,
                "testbed_s": e.testbed_s,
            }
            for e in self.entries
        ]


@dataclass(frozen=True)
class FinderResult:
    """One search's interval, its flags and its trace."""

    interval: RateInterval
    flags: tuple[str, ...]
    trace: FinderTrace


def _stands_alone(dr: float, pass_mark: float, near_band: float) -> bool:
    """One trial decides its rate when its DR is 1 or outside the near band."""
    return dr == 1.0 or abs(dr - pass_mark) > near_band


def _spread(drs: list[float]) -> tuple[float, float]:
    """The DRs' mean, less the first DR, and their squared deviations from
    the mean, summed."""
    first = drs[0]
    # deviations from the first DR lose less to rounding than the DRs would
    devs = [x - first for x in drs]
    mean_dev = math.fsum(devs) / len(drs)
    return mean_dev, math.fsum((d - mean_dev) ** 2 for d in devs)


def _decided(drs: list[float], pass_mark: float, prior_squares: float, prior_df: int) -> bool:
    """Whether the delivery ratios put their mean farther from the pass
    mark than its 95% Student-t half-width t * s / sqrt(n), s pooled from
    these DRs and the prior batches' squares. Needs one degree of freedom.
    The 95% is per look, uncorrected for repeated looks or the pooled prior."""
    n = len(drs)
    mean_dev, squares = _spread(drs)
    gap = drs[0] - pass_mark + mean_dev
    df = prior_df + n - 1
    return df >= 1 and gap * gap * n * df > t_95(df) ** 2 * (prior_squares + squares)


def evaluate_point(
    driver: TrafficDriver,
    tx_rate_pps: float,
    duration_s: float,
    loss_threshold: float,
    policy: TrialPolicy,
    pool: Optional[SpreadPool] = None,
) -> tuple[float, int]:
    """Measure the delivery ratio at one rate, repeating near the threshold.

    A single trial stands when its DR is 1 or comfortably away from the
    threshold. Inside the near band the trial is repeated until the DRs
    decide the threshold (their mean outside its 95% Student-t interval)
    or policy.repetitions have run. It is tested after every trial at 95%
    per look, uncorrected for repeated looks or the pooled prior. The
    interval's spread is pooled from the batch and the pool's earlier
    batches, with t_95(pool.df + n - 1).
    With an empty pool that takes two DRs: two equal DRs off the pass
    mark decide it, and two that differ must put their mean more than
    t_95(1) = 12.706 standard errors from it. With a pool, one DR can.
    The mean DR is accepted only if the CV of the received rates stays
    under the cap, and an accepted batch adds its spread to the pool; the
    whole batch is retried up to policy.retry_cap times before giving up.

    Returns (delivery ratio, trials used).
    """
    if not 0 < tx_rate_pps < math.inf:  # NaN fails too
        raise ValueError("tx rate must be positive and finite")
    pass_mark = 1.0 - loss_threshold
    sample = driver.run_trial(tx_rate_pps, duration_s)
    dr = delivery_ratio(sample)
    if _stands_alone(dr, pass_mark, policy.near_band):
        return dr, 1

    pool = SpreadPool() if pool is None else pool
    trials_used = 1
    rx_rates, drs = [sample.throughput_pps], [dr]
    for _ in range(policy.retry_cap):
        while len(drs) < policy.repetitions and not (
            drs and _decided(drs, pass_mark, pool.squares, pool.df)
        ):
            sample = driver.run_trial(tx_rate_pps, duration_s)
            rx_rates.append(sample.throughput_pps)
            drs.append(delivery_ratio(sample))
            trials_used += 1
        # equal finite rx rates have a CV of exactly 0, which no cap is below
        steady = rx_rates.count(rx_rates[0]) == len(rx_rates) and rx_rates[0] < math.inf
        if steady or summarize(rx_rates).cv_percent <= policy.max_rx_cv_percent:
            pool.squares += _spread(drs)[1]
            pool.df += len(drs) - 1
            # plain left-to-right addition on every Python (sum() compensates from 3.12)
            return reduce(operator.add, drs) / len(drs), trials_used
        rx_rates, drs = [], []
    raise Srv6BenchError(
        f"rx rate CV stayed above {policy.max_rx_cv_percent}% "
        f"after {policy.retry_cap} batches"
    )


class _Search:
    """One PDR search: its driver, config and policy; its window (floor,
    top and goal width eps) and pass mark; its trace and spread pool; the
    trials of the measurement under way; and whether it still trusts
    screens near the threshold."""

    UNMEASURED = TraceEntry(0.0, math.nan, "", 0, 0.0)  # what a new entry adds to

    def __init__(self, driver, lpr, cfg, policy):
        self.driver, self.policy = driver, policy or TrialPolicy()
        self.cfg = cfg = cfg or SearchConfig()
        self.floor = lpr * cfg.min_percent / 100.0
        self.top = lpr * cfg.max_percent / 100.0
        self.eps = lpr * cfg.accuracy_percent / 100.0
        self.pass_mark = 1.0 - cfg.loss_threshold
        self.trace, self.pool, self.trust, self.trials = FinderTrace(), SpreadPool(), True, 0

    def run_trial(self, rate, duration_s):
        """The driver's trial, counted in self.trials: every trial of the search runs here."""
        sample = self.driver.run_trial(rate, duration_s)
        self.trials += 1
        return sample

    def measure(self, rate, full, i=None) -> TraceEntry:
        """Measure `rate` with one screen or, if full, one evaluate_point
        batch run through run_trial. Record and return its entry, passed at
        the pass mark or over: new, or entry i with the new trials added. A
        failure aborts the search; entry i keeps its DR and gains the trials."""
        duration_s = self.cfg.trial_duration_s / (1 if full else SCREEN_DIVISOR)
        base = self.UNMEASURED if i is None else self.trace.entries[i]
        self.trials, failure = 0, None
        try:
            if full:
                dr = evaluate_point(self, rate, duration_s, self.cfg.loss_threshold, self.policy, self.pool)[0]
            else:
                dr = delivery_ratio(self.run_trial(rate, duration_s))
        except Srv6BenchError as exc:
            dr, failure = base.delivery_ratio, exc
        reps, spent = base.repetitions + self.trials, base.testbed_s + self.trials * duration_s
        entry = TraceEntry(rate, dr, RAISE_LOW if dr >= self.pass_mark else LOWER_HIGH, reps, spent)
        if i is not None:
            self.trace.entries[i] = entry
        elif failure is None:
            self.trace.entries.append(entry)
        if failure is not None:
            message = f"search aborted at {rate:.0f} pps: {failure}"
            raise ExperimentAbortedError(message, traces=(self.trace,)) from failure
        return entry

    def probe(self, rate) -> bool:
        """Measure one rate, record it in the trace and say whether it passed:
        with a screen, unless one packet would move its DR by more than a
        tenth of the near band. Whether a screen alone may decide the rate
        is for bisect to say."""
        screen_s = self.cfg.trial_duration_s / SCREEN_DIVISOR
        full = rate * screen_s * self.policy.near_band < 10.0
        return self.measure(rate, full).decision == RAISE_LOW

    def confirm(self, i) -> bool:
        """Re-measure trace entry i at full duration if a screen alone
        decided it, and say whether that overturned the screen. The result
        replaces the entry, which keeps counting every trial and second,
        an aborted confirmation's too."""
        screened = self.trace.entries[i]
        if screened.testbed_s >= self.cfg.trial_duration_s:  # a full-duration trial ran
            return False
        return self.measure(screened.tx_rate_pps, True, i).decision != screened.decision

    def window(self) -> tuple[float, float]:
        """The highest passed rate in the trace (floor if none passed) and
        the lowest failed one (top if none failed)."""
        passed = [e.tx_rate_pps for e in self.trace.entries if e.decision == RAISE_LOW]
        failed = [e.tx_rate_pps for e in self.trace.entries if e.decision == LOWER_HIGH]
        return max(passed, default=self.floor), min(failed, default=self.top)

    def bisect(self) -> FinderResult:
        """Halve the window around its middle until it is no wider than eps,
        confirming the bounds a screen alone decided, and flag the result.

        This is the one place screens are distrusted. Once the window is
        narrow, each bound a screen alone decided is confirmed, nearest the
        pass mark first. One that overturns its screen moves that bound, no
        trial is spent on the other, and the halving goes on from there.
        Unless its batch ran to the policy.repetitions cap, which says
        nothing of the screens, the search then distrusts screens near the
        threshold: each near-band bound one alone decided, a fresh probe
        included, is confirmed before the next halving, so wrong screens
        cost trials, not a search they steer. A search in which no probe
        failed is flagged line-rate-limited; one in which none passed,
        below-search-floor.
        """
        entries, near_band = self.trace.entries, self.policy.near_band
        low, high = self.window()
        while True:
            narrow = high - low <= self.eps
            if narrow or not self.trust:
                at_bounds = [i for i, e in enumerate(entries) if e.tx_rate_pps in (low, high)]
                # nearest the pass mark, likeliest overturned, first (ties in trace order)
                at_bounds.sort(key=lambda i: abs(entries[i].delivery_ratio - self.pass_mark))
                to_confirm = [i for i in at_bounds if not (
                    self.trust or _stands_alone(entries[i].delivery_ratio, self.pass_mark, near_band)
                )]
                if narrow:  # then every bound; confirming one again runs no trial
                    to_confirm += at_bounds
                # an overturn makes the rest moot
                overturned = next((i for i in to_confirm if self.confirm(i)), None)
                if overturned is not None:
                    # its screen, then a batch that ran to the cap, keeps the screens trusted
                    self.trust = self.trust and entries[overturned].repetitions > self.policy.repetitions
                    low, high = self.window()
                    continue
                if narrow:
                    break
            tx = (low + high) / 2.0
            if self.probe(tx):
                low = tx
            else:
                high = tx
        flags = ()
        if len({e.decision for e in entries}) == 1:  # no probe failed, or none passed
            passed = entries[0].decision == RAISE_LOW
            flags = (FLAG_LINE_RATE_LIMITED if passed else FLAG_BELOW_SEARCH_FLOOR,)
        return FinderResult(RateInterval(low, high), flags, self.trace)


def find_pdr(
    driver: TrafficDriver,
    line_packet_rate_pps: float,
    cfg: Optional[SearchConfig] = None,
    policy: Optional[TrialPolicy] = None,
) -> FinderResult:
    """Pure binary search for the partial drop rate.

    Halves the window around its middle point until the window is no
    wider than the accuracy target (see _Search.bisect). A window no wider
    than the accuracy target would run no trial, so it is refused.
    """
    search = _Search(driver, line_packet_rate_pps, cfg, policy)
    if not search.cfg.accuracy_percent < search.cfg.max_percent - search.cfg.min_percent:
        raise ValueError("accuracy_percent must be below max_percent - min_percent")
    return search.bisect()


def find_pdr_legacy(
    driver: TrafficDriver,
    line_packet_rate_pps: float,
    cfg: Optional[SearchConfig] = None,
    policy: Optional[TrialPolicy] = None,
) -> FinderResult:
    """Older two-phase finder: double the rate from the floor until a
    trial fails, then binary-search between the last passing and first
    failing rates. A failing floor (confirmed at full duration) collapses
    the interval onto it. Flagged as find_pdr flags its results."""
    search = _Search(driver, line_packet_rate_pps, cfg, policy)
    rate = search.floor
    # a failing floor collapses the search, so a screen alone may not fail it
    passed = search.probe(rate) or search.confirm(0)
    # a doubling that would overshoot the window top is not probed
    while passed and rate * 2.0 <= search.top:
        rate *= 2.0
        passed = search.probe(rate)
    return search.bisect()


@dataclass(frozen=True)
class ValidationResult:
    """Statistics over repeated searches' midpoints, and every search's result."""

    stats: SummaryStats
    results: tuple[FinderResult, ...]


def validate_pdr(
    driver: TrafficDriver,
    line_packet_rate_pps: float,
    cfg: Optional[SearchConfig] = None,
    policy: Optional[TrialPolicy] = None,
    runs: int = 10,
    algorithm=find_pdr,
) -> ValidationResult:
    """Repeat a full search and summarize the interval midpoints.

    An error inside a search aborts it: the ExperimentAbortedError
    carries in traces the runs that finished before it, then the
    partial one.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    results = []
    for _ in range(runs):
        try:
            results.append(algorithm(driver, line_packet_rate_pps, cfg, policy))
        except ExperimentAbortedError as exc:
            exc.traces = tuple(r.trace for r in results) + exc.traces
            raise
    stats = summarize([r.interval.midpoint_pps for r in results])
    return ValidationResult(stats=stats, results=tuple(results))

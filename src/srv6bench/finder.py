"""Partial-drop-rate search: pure binary search, the legacy
exponential-then-binary variant, the near-threshold repetition policy
and the multi-run validation wrapper.

Both finders return an interval [low, high] of offered rates whose width
is at most epsilon = line_packet_rate * accuracy_percent / 100, plus a
trace of every trial they ran.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

from .errors import (
    ExperimentAbortedError,
    Srv6BenchError,
    UnstableMeasurementError,
)
from .ratemath import SummaryStats, delivery_ratio, summarize
from .simulator import TrafficDriver

RAISE_LOW = "raise-low"
LOWER_HIGH = "lower-high"

FLAG_LINE_RATE_LIMITED = "line-rate-limited"
FLAG_BELOW_SEARCH_FLOOR = "below-search-floor"


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


@dataclass(frozen=True)
class RateInterval:
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
    tx_rate_pps: float
    delivery_ratio: float
    decision: str
    repetitions: int


@dataclass
class FinderTrace:
    entries: list[TraceEntry] = field(default_factory=list)

    def records(self) -> list[dict]:
        """One plain dict per entry, the form every trace file is written in."""
        return [
            {
                "tx_rate_pps": e.tx_rate_pps,
                "delivery_ratio": e.delivery_ratio,
                "decision": e.decision,
                "repetitions": e.repetitions,
            }
            for e in self.entries
        ]


@dataclass(frozen=True)
class FinderResult:
    interval: RateInterval
    flags: tuple[str, ...]
    trace: FinderTrace


def evaluate_point(
    driver: TrafficDriver,
    tx_rate_pps: float,
    duration_s: float,
    loss_threshold: float,
    policy: TrialPolicy,
) -> tuple[float, int]:
    """Measure the delivery ratio at one rate, repeating near the threshold.

    A single trial stands when its DR is 1 or comfortably away from the
    threshold. Inside the near band the trial is repeated to
    policy.repetitions total and the mean DR is accepted only if the CV
    of the received rates stays under the cap; the whole batch is
    retried up to policy.retry_cap times before giving up.

    Returns (delivery ratio, trials used).
    """
    if tx_rate_pps <= 0:
        raise ValueError("tx rate must be positive")
    pass_mark = 1.0 - loss_threshold
    sample = driver.run_trial(tx_rate_pps, duration_s)
    dr = delivery_ratio(sample)
    if dr == 1.0 or abs(dr - pass_mark) > policy.near_band:
        return dr, 1

    trials_used = 1
    for batch in range(policy.retry_cap):
        if batch == 0:
            samples = [sample]
        else:
            samples = []
        while len(samples) < policy.repetitions:
            samples.append(driver.run_trial(tx_rate_pps, duration_s))
            trials_used += 1
        rx_rates = [s.throughput_pps for s in samples]
        if summarize(rx_rates).cv_percent <= policy.max_rx_cv_percent:
            # plain left-to-right addition on every Python (sum() compensates from 3.12)
            mean_dr = reduce(operator.add, map(delivery_ratio, samples)) / len(samples)
            return mean_dr, trials_used
    raise UnstableMeasurementError(
        f"rx rate CV stayed above {policy.max_rx_cv_percent}% "
        f"after {policy.retry_cap} batches at {tx_rate_pps:.0f} pps"
    )


def _probe(driver, rate, cfg, policy, trace) -> bool:
    """Evaluate one rate, record it in the trace and say whether it passed."""
    try:
        dr, reps = evaluate_point(
            driver, rate, cfg.trial_duration_s, cfg.loss_threshold, policy
        )
    except UnstableMeasurementError:
        raise
    except Srv6BenchError as exc:
        raise ExperimentAbortedError(
            f"driver failure at {rate:.0f} pps: {exc}", trace=trace
        ) from exc
    passed = dr >= 1.0 - cfg.loss_threshold
    trace.entries.append(TraceEntry(rate, dr, RAISE_LOW if passed else LOWER_HIGH, reps))
    return passed


def _bisect(driver, low, high, eps, cfg, policy, trace):
    """Halve [low, high] around its middle until it is no wider than eps.

    Returns (low, high, bottom_raised, top_lowered): the final bounds and
    whether a probe ever moved each of them.
    """
    bottom_raised = top_lowered = False
    while high - low > eps:
        tx = (low + high) / 2.0
        if _probe(driver, tx, cfg, policy, trace):
            low, bottom_raised = tx, True
        else:
            high, top_lowered = tx, True
    return low, high, bottom_raised, top_lowered


def find_pdr(
    driver: TrafficDriver,
    line_packet_rate_pps: float,
    cfg: Optional[SearchConfig] = None,
    policy: Optional[TrialPolicy] = None,
) -> FinderResult:
    """Pure binary search for the partial drop rate.

    Halves the window around its middle point until the window is no
    wider than the accuracy target. A window whose top was never lowered
    is flagged line-rate-limited; one whose bottom was never raised is
    flagged below-search-floor.
    """
    cfg = cfg or SearchConfig()
    policy = policy or TrialPolicy()
    lpr = line_packet_rate_pps
    trace = FinderTrace()
    low, high, bottom_raised, top_lowered = _bisect(
        driver,
        lpr * cfg.min_percent / 100.0,
        lpr * cfg.max_percent / 100.0,
        lpr * cfg.accuracy_percent / 100.0,
        cfg,
        policy,
        trace,
    )
    flags = []
    if trace.entries and not top_lowered:
        flags.append(FLAG_LINE_RATE_LIMITED)
    if trace.entries and not bottom_raised:
        flags.append(FLAG_BELOW_SEARCH_FLOOR)
    return FinderResult(RateInterval(low, high), tuple(flags), trace)


def find_pdr_legacy(
    driver: TrafficDriver,
    line_packet_rate_pps: float,
    cfg: Optional[SearchConfig] = None,
    policy: Optional[TrialPolicy] = None,
) -> FinderResult:
    """Older two-phase finder: double the rate from the floor until a
    trial fails, then binary-search between the last passing and first
    failing rates."""
    cfg = cfg or SearchConfig()
    policy = policy or TrialPolicy()
    lpr = line_packet_rate_pps
    max_rate = lpr * cfg.max_percent / 100.0
    trace = FinderTrace()
    rate = lpr * cfg.min_percent / 100.0
    if not _probe(driver, rate, cfg, policy, trace):
        # the very first probe at the window floor already failed
        return FinderResult(RateInterval(rate, rate), (FLAG_BELOW_SEARCH_FLOOR,), trace)
    # a doubling that would overshoot the window top is not probed
    failed_at = None
    while failed_at is None and rate * 2.0 <= max_rate:
        if _probe(driver, rate * 2.0, cfg, policy, trace):
            rate = rate * 2.0
        else:
            failed_at = rate * 2.0

    low, high, _, top_lowered = _bisect(
        driver,
        rate,
        max_rate if failed_at is None else failed_at,
        lpr * cfg.accuracy_percent / 100.0,
        cfg,
        policy,
        trace,
    )
    flags = () if top_lowered or failed_at is not None else (FLAG_LINE_RATE_LIMITED,)
    return FinderResult(RateInterval(low, high), flags, trace)


@dataclass(frozen=True)
class ValidationResult:
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
    """Repeat a full search and summarize the interval midpoints."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    results = tuple(
        algorithm(driver, line_packet_rate_pps, cfg, policy) for _ in range(runs)
    )
    stats = summarize([r.interval.midpoint_pps for r in results])
    return ValidationResult(stats=stats, results=results)

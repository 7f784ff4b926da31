"""Per-layer timing of srv6bench from outside the program.

Each layer's public functions are wrapped where their callers look them
up, and the spans are aggregated in memory: calls, total time and self
time (total minus the time spent in wrapped child calls). The program
itself is not changed; `install` and `uninstall` swap the wrappers in and
out so traced and untraced rounds can alternate within one run.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (span, module, attribute). A dotted attribute is a class member and is
# patched on the class. A plain one is patched on every srv6bench module
# that holds the same function object, because callers bind it with
# `from .module import name`: patching only srv6bench.packet.encode would
# miss every call simulator makes.
TARGETS = (
    ("packet.encode", "packet", "encode"),
    ("packet.decode", "packet", "decode"),
    ("packet.apply_behavior", "packet", "apply_behavior"),
    ("packet.satisfies", "packet", "satisfies"),
    ("packet.build_test_packet", "packet", "build_test_packet"),
    ("simulator.run_trial", "simulator", "run_trial"),
    ("simulator.driver_init", "simulator", "SimDriver.__init__"),
    ("driver.trial", "simulator", "SimDriver.run_trial"),
    ("finder.search", "finder", "find_pdr"),
    ("finder.search", "finder", "find_pdr_legacy"),
    ("finder.evaluate_point", "finder", "evaluate_point"),
    ("orchestrator.parse", "orchestrator", "parse_experiment_config"),
    ("orchestrator.parse", "orchestrator", "parse_testbed_config"),
    ("orchestrator.resolve", "orchestrator", "resolve"),
    ("orchestrator.run_campaign", "orchestrator", "run_campaign"),
    ("orchestrator.command", "orchestrator", "RecordingExecutor.execute"),
    ("cli.main", "cli", "main"),
)

# The TrafficDriver boundary: one span per trial a lab would pay for.
TRIAL = "driver.trial"
EVALUATE = "finder.evaluate_point"


class Tracer:
    """Span aggregates for the wrapped layers of one loaded program."""

    def __init__(self, program):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        # calls made while a trial is running, per span
        self.calls_in_trial = Counter()
        # trials used per evaluate_point call -> how many calls
        self.trials_at_point = Counter()
        self._stack: list[list[float]] = []
        self._trial_depth = 0
        self._patches = self._plan(program)

    def _plan(self, program):
        modules = [
            m for m in vars(program).values()
            if getattr(m, "__name__", "").startswith("srv6bench.")
        ]
        patches = []
        for span, module_name, attr in TARGETS:
            owner = getattr(program, module_name)
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, member, None)
                if original is not None:
                    patches.append((cls, member, original, self._wrap(span, original)))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span, original)
            for module in modules:
                for name, value in vars(module).items():
                    if value is original:
                        patches.append((module, name, original, wrapper))
        return patches

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    def _wrap(self, span, fn):
        stack = self._stack
        is_trial = span == TRIAL
        is_evaluate = span == EVALUATE
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._trial_depth:
                self.calls_in_trial[span] += 1
            if is_trial:
                self._trial_depth += 1
            child = [0.0]
            stack.append(child)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                if is_trial:
                    self._trial_depth -= 1
                self.calls[span] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - child[0]
            if is_evaluate and isinstance(result, tuple):
                self.trials_at_point[result[1]] += 1
            return result

        return wrapper

    # -- aggregates -------------------------------------------------------

    def mean_us(self, span: str) -> float:
        return ratio(self.total_s[span] * 1e6, self.calls[span])

    def self_us(self, span: str) -> float:
        return ratio(self.self_s[span] * 1e6, self.calls[span])

    def per_trial(self, span: str) -> float:
        return ratio(self.calls_in_trial[span], self.calls[TRIAL])

    def batch_retries(self, repetitions: int) -> int:
        """Batches re-run after the first, from the trials each point used:
        a point uses 1 trial, or `repetitions` per batch it ran."""
        return sum(
            max(0, n // repetitions - 1) * count
            for n, count in self.trials_at_point.items()
        )


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was counted."""
    return num / den if den else 0.0

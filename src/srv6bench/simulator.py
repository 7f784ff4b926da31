"""Simulated single-core forwarder and the traffic-driver contract.

The forwarder has a per-behavior capacity C and a parametric delivery
curve: below capacity the loss ramps up smoothly to loss_at_capacity,
above capacity the output is pinned at (1 - loss_at_capacity) * C. The
curve is continuous at C and invertible in closed form, which gives the
search algorithms an independent analytic oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Mapping, Optional, Protocol

from .catalog import BehaviorId, traffic_requirement
from .errors import Srv6BenchError
from .packet import (
    BehaviorConfig,
    IPv4Header,
    IPv6Header,
    PacketTemplate,
    apply_behavior,
    decode,
    encode,
    satisfies,
)
from .ratemath import TrialSample


@dataclass(frozen=True)
class ForwarderModel:
    """Parametric model of a CPU-limited forwarder.

    capacity_pps maps each behavior to its saturation rate. Noise, when
    enabled, perturbs the received packet count multiplicatively with a
    seeded PRNG; results are deterministic for identical inputs.
    behavior_config overrides the address plan's config of a behavior.
    """

    capacity_pps: Mapping[BehaviorId, float]
    loss_at_capacity: float = 0.01
    curve_exponent: float = 4.0
    noise_sigma: float = 0.0
    seed: int = 0
    behavior_config: Mapping[BehaviorId, BehaviorConfig] = field(default_factory=dict)

    def __post_init__(self):
        # written so that NaN fails every check
        if not all(0 < c < math.inf for c in self.capacity_pps.values()):
            raise ValueError("capacities must be positive and finite")
        if not 0 <= self.loss_at_capacity < 1:
            raise ValueError("loss_at_capacity must be in [0, 1)")
        if not 1 <= self.curve_exponent < math.inf:
            raise ValueError("curve_exponent must be >= 1 and finite")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be non-negative and finite")

    def capacity(self, behavior: BehaviorId) -> float:
        try:
            return self.capacity_pps[behavior]
        except KeyError:
            raise Srv6BenchError(
                f"no capacity configured for {behavior}"
            ) from None


def delivery_model(model: ForwarderModel, behavior: BehaviorId, rate_pps: float) -> float:
    """Expected delivery ratio at a given offered rate."""
    if not 0 < rate_pps < math.inf:  # NaN fails too
        raise ValueError("rate must be positive and finite")
    return _delivery(model, model.capacity(behavior), rate_pps)


def _delivery(model: ForwarderModel, c: float, rate_pps: float) -> float:
    """The delivery curve at a positive rate, for a behavior of capacity c."""
    l0 = model.loss_at_capacity
    if rate_pps <= c:
        return 1.0 - l0 * (rate_pps / c) ** model.curve_exponent
    return (1.0 - l0) * c / rate_pps


def analytic_pdr(
    model: ForwarderModel, behavior: BehaviorId, loss_threshold: float
) -> float:
    """Closed-form inversion of the delivery curve at 1 - loss_threshold."""
    if not 0 < loss_threshold < 1:
        raise ValueError("loss_threshold must be in (0, 1)")
    c = model.capacity(behavior)
    l0 = model.loss_at_capacity
    x = loss_threshold
    if x <= l0:
        return c * (x / l0) ** (1.0 / model.curve_exponent)
    return (1.0 - l0) * c / (1.0 - x)


def _outermost_hop_limit(template: PacketTemplate) -> Optional[int]:
    for layer in template.layers:
        if isinstance(layer, IPv6Header):
            return layer.hop_limit
        if isinstance(layer, IPv4Header):
            return layer.ttl
    return None


class TrafficDriver(Protocol):
    """Blocking trial-running contract the search algorithms rely on.

    A driver is built before any setup step and must refuse, when it is
    built, a test packet that encode refuses, as SimDriver does.
    """

    def run_trial(self, rate_pps: float, duration_s: float) -> TrialSample: ...


class SimDriver:
    """Reference driver: runs trials against a ForwarderModel.

    The template is checked against the behavior's traffic requirement
    and encoded, and the model asked for the behavior's capacity, once,
    when the driver is built. A noisy model gets one generator per
    driver, seeded once from the model seed and the behavior, so each
    trial draws the next noise value.
    """

    def __init__(
        self, model: ForwarderModel, behavior: BehaviorId, template: PacketTemplate
    ):
        if not satisfies(template, traffic_requirement(behavior)):
            raise Srv6BenchError(f"template does not satisfy the {behavior} traffic requirement")
        encode(template)  # a test packet the codec cannot write fails before any trial
        self._capacity = model.capacity(behavior)
        self.model = model
        self.behavior = behavior
        self.template = template
        self._config = model.behavior_config.get(behavior)
        noisy = model.noise_sigma > 0
        self._rng = random.Random(f"{model.seed}|{behavior.value}") if noisy else None

    def run_trial(self, rate_pps: float, duration_s: float) -> TrialSample:
        """Offer traffic for a fixed duration and report what came back. A
        forwarded packet that encode refuses or decode does not give back
        fails the trial."""
        offered = rate_pps * duration_s
        # two positive numbers with a finite product are finite; NaN fails too
        if not (rate_pps > 0 and duration_s > 0 and offered < math.inf):
            raise ValueError("rate and duration must be positive and finite")
        behavior = self.behavior
        forwarded, _ = apply_behavior(behavior, self.template, self._config)
        try:
            wire = encode(forwarded)
        except Srv6BenchError as exc:
            raise Srv6BenchError(f"{behavior} does not conform: {exc}") from exc
        if decode(wire) != forwarded:
            raise Srv6BenchError(
                f"{behavior} does not conform: its forwarded packet does not survive encode/decode"
            )
        p_in = round(offered)
        if _outermost_hop_limit(forwarded) == 0:
            p_out = 0
        else:
            model = self.model
            expected = p_in * _delivery(model, self._capacity, rate_pps)
            if self._rng is not None:
                expected *= 1.0 + self._rng.gauss(0.0, model.noise_sigma)
            p_out = min(max(round(expected), 0), p_in)
        return TrialSample(p_in, p_out, duration_s)

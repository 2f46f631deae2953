"""The headline dynamic policy: load-adaptive bounds.

The policy keeps a single *looseness factor* and servos it against the
server's tick utilization (smoothed tick duration / tick budget), and
optionally against a bandwidth budget:

* utilization above the high watermark → multiply the factor up
  (shed load by tolerating more inconsistency);
* utilization below the low watermark → multiply it down
  (spend the headroom on consistency, converging toward vanilla).

Bounds for each subscription are the :class:`DistanceBasedPolicy` surface
scaled by the factor, so nearby action always stays crisper than the
periphery; the factor only moves the whole surface up and down.

This is the mechanism behind the paper's headline results: under light
load the game behaves like vanilla (no QoE cost), and as load approaches
the tick budget the policy trades imperceptible peripheral fidelity for
~40% more player capacity and up to ~85% less bandwidth.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.policy import LoadSignals, PairTable, Policy
from repro.core.subscription import Subscriber
from repro.policies.distance import DistanceBasedPolicy


class AdaptiveBoundsPolicy(Policy):
    """Distance-shaped bounds scaled by a load-servoed factor."""

    def __init__(
        self,
        shape: DistanceBasedPolicy | None = None,
        high_watermark: float = 0.8,
        low_watermark: float = 0.5,
        loosen_factor: float = 1.6,
        tighten_factor: float = 0.75,
        min_factor: float = 0.0,
        max_factor: float = 32.0,
        bandwidth_budget_bytes_per_s: float | None = None,
        evaluation_period_ms: float = 1000.0,
    ) -> None:
        if not (0 <= low_watermark < high_watermark):
            raise ValueError(
                f"watermarks must satisfy 0 <= low < high, got "
                f"low={low_watermark}, high={high_watermark}"
            )
        if loosen_factor <= 1.0 or not (0.0 < tighten_factor < 1.0):
            raise ValueError("loosen_factor must be > 1 and tighten_factor in (0, 1)")
        self.shape = shape if shape is not None else DistanceBasedPolicy()
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.loosen_factor = loosen_factor
        self.tighten_factor = tighten_factor
        self.min_factor = min_factor
        self.max_factor = max_factor
        self.bandwidth_budget_bytes_per_s = bandwidth_budget_bytes_per_s
        self.evaluation_period_ms = evaluation_period_ms
        self.factor = 1.0
        #: (time, factor) trace for the E6 dynamics figure.
        self.factor_history: list[tuple[float, float]] = []

    # ------------------------------------------------------------------
    # Bound derivation
    # ------------------------------------------------------------------

    def bounds_columns(self, system, table: PairTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The shape's columns times the factor, over the pairs of
        ``table`` (a view change, a retune, S23, or a chunk crossing,
        S33): entry for entry what ``Bounds.scaled`` computes, except
        that zero and infinite bounds stay as they are (without that a
        factor of 0 would turn ``inf`` into NaN)."""
        numerical, staleness, order = self.shape.bounds_columns(system, table)
        factor = self.factor
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        infinite_order = np.isinf(order)
        if 0.0 < factor < math.inf and infinite_order.all():
            # A positive finite factor keeps a zero zero and an infinite
            # bound infinite, and no order bound is scaled: every mask
            # below is the plain product.
            numerical *= factor
            staleness *= factor
            return numerical, staleness, order
        scale = ~(
            ((numerical == 0.0) & (staleness == 0.0))
            | (np.isinf(numerical) & np.isinf(staleness) & infinite_order)
        )
        np.multiply(numerical, factor, out=numerical, where=scale)
        np.multiply(staleness, factor, out=staleness, where=scale)
        np.multiply(order, factor, out=order, where=scale & ~infinite_order)
        return numerical, staleness, order

    def on_subscriber_moved(self, system, subscriber: Subscriber) -> None:
        system.retune_subscriber(subscriber, self.bounds_columns)

    # ------------------------------------------------------------------
    # Dynamic evaluation
    # ------------------------------------------------------------------

    def evaluate(self, system, signals: LoadSignals) -> None:
        overloaded = signals.tick_utilization > self.high_watermark
        if self.bandwidth_budget_bytes_per_s is not None:
            overloaded = overloaded or (
                signals.outgoing_bytes_per_second > self.bandwidth_budget_bytes_per_s
            )
        underloaded = signals.tick_utilization < self.low_watermark and not overloaded

        previous = self.factor
        if overloaded:
            # Proportional response: deep overload (tick several times the
            # budget, e.g. after a join burst) must not take a dozen
            # evaluation periods to shed — scale the step with how far
            # past the watermark the server is, capped to stay stable.
            boost = min(
                8.0,
                max(self.loosen_factor, signals.tick_utilization / self.high_watermark),
            )
            self.factor = min(self.max_factor, max(self.factor, 0.25) * boost)
        elif underloaded:
            self.factor = self.factor * self.tighten_factor
            if self.factor < 0.05:
                self.factor = self.min_factor
        self.factor = max(self.min_factor, min(self.max_factor, self.factor))
        self.factor_history.append((signals.now, self.factor))

        telemetry = getattr(system, "telemetry", None)
        if telemetry is not None and telemetry.enabled:
            telemetry.gauge("policy_factor").set(self.factor)
            telemetry.gauge("policy_tick_utilization").set(signals.tick_utilization)
            if self.factor != previous:
                direction = "loosen" if self.factor > previous else "tighten"
                telemetry.counter("policy_adjustments_total", direction=direction).increment()

        if self.factor != previous:
            system.retune_clients(self.bounds_columns)

    def __repr__(self) -> str:
        return (
            f"AdaptiveBoundsPolicy(factor={self.factor:.2f}, "
            f"watermarks=({self.low_watermark}, {self.high_watermark}))"
        )

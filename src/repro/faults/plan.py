"""Declarative fault plans.

A :class:`FaultPlan` is a frozen value object: it describes *what* should
go wrong on a link, never *when a specific packet* is hit — that decision
is drawn per packet from a seeded RNG inside
:class:`~repro.faults.link.FaultyLink`, which is what keeps faulty runs
bit-for-bit reproducible per seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class DegradedWindow:
    """A time window during which the link's bandwidth is scaled down.

    Models a congested backbone or a mobile client walking out of
    coverage: between ``start_ms`` and ``end_ms`` (simulated time) the
    link serializes packets at ``bandwidth_factor`` times its configured
    rate, so queueing delay builds up exactly as on a real throttled pipe.
    """

    start_ms: float
    end_ms: float
    bandwidth_factor: float

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise ValueError(
                f"degraded window must end after it starts, got "
                f"[{self.start_ms}, {self.end_ms})"
            )
        if not (0.0 < self.bandwidth_factor <= 1.0):
            raise ValueError(
                f"bandwidth factor must be in (0, 1], got {self.bandwidth_factor}"
            )

    def contains(self, now: float) -> bool:
        return self.start_ms <= now < self.end_ms


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Per-link fault parameters; all defaults are "no faults".

    Loss has two components that compose:

    * ``loss_rate`` — independent (Bernoulli) per-packet loss;
    * a Gilbert–Elliott two-state chain — each packet first advances the
      GOOD/BAD state (``p_good_to_bad`` / ``p_bad_to_good`` transition
      probabilities), and while the chain is BAD packets are additionally
      dropped with ``burst_loss_rate``. This is the standard model for
      the clustered losses real wireless/congested links exhibit.

    ``spike_probability``/``spike_ms`` add an occasional large one-off
    delay (bufferbloat, Wi-Fi retransmission pause) on top of the link's
    regular jitter; ``degraded_windows`` throttle serialization bandwidth
    during fixed time windows.
    """

    loss_rate: float = 0.0
    burst_loss_rate: float = 0.0
    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 1.0
    spike_probability: float = 0.0
    spike_ms: float = 0.0
    degraded_windows: tuple[DegradedWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in ("loss_rate", "burst_loss_rate", "p_good_to_bad",
                     "p_bad_to_good", "spike_probability"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.spike_ms < 0:
            raise ValueError(f"spike_ms must be >= 0, got {self.spike_ms}")
        if self.p_good_to_bad > 0 and self.p_bad_to_good == 0 and self.burst_loss_rate >= 1.0:
            raise ValueError("plan would eventually drop every packet forever "
                             "(absorbing BAD state with certain loss)")

    @property
    def has_burst_model(self) -> bool:
        return self.p_good_to_bad > 0.0 and self.burst_loss_rate > 0.0

    @property
    def has_spikes(self) -> bool:
        return self.spike_probability > 0.0 and self.spike_ms > 0.0


#: Convenience null plan (useful for overhead benchmarks: installs the
#: fault layer with every rate at zero).
NULL_FAULT_PLAN = FaultPlan()

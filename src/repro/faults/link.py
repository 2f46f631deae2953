"""A :class:`ClientLink` that executes a :class:`FaultPlan`.

The base link already models bandwidth, propagation, jitter, and FIFO
queueing; this subclass plugs into its fault hooks to add seeded packet
loss (independent + Gilbert–Elliott burst), latency spikes, and
bandwidth-degradation windows.

Determinism contract: all randomness comes from the single ``rng`` the
transport derives per client (``derive_rng(seed, "faults", client_id)``),
and draws happen in a fixed per-packet order — burst-state transition,
burst-loss draw, independent-loss draw, then (for surviving packets)
spike draw. Adding a new fault type must append to this order, never
reorder it, or same-seed runs stop being comparable across versions.
For the same reason an egress frame (``ClientLink.transmit_frame``) on
this link is a plain loop over :meth:`~ClientLink.transmit`: the base
class takes its batched path only when ``type(self) is ClientLink``.
"""

from __future__ import annotations

import random

from repro.faults.plan import FaultPlan
from repro.net.link import ClientLink, LinkConfig


class FaultyLink(ClientLink):
    """Downstream pipe with deterministic fault injection."""

    def __init__(
        self,
        client_id: int,
        config: LinkConfig,
        plan: FaultPlan,
        rng: random.Random,
        jitter=None,
    ) -> None:
        super().__init__(client_id, config, jitter=jitter)
        self.plan = plan
        self._rng = rng
        self._burst_bad = False
        self.packets_dropped = 0

    # ------------------------------------------------------------------
    # Hook overrides
    # ------------------------------------------------------------------

    def bandwidth_at(self, now: float) -> float:
        bandwidth = self.config.bandwidth_bps
        for window in self.plan.degraded_windows:
            if window.contains(now):
                bandwidth *= window.bandwidth_factor
        return bandwidth

    def consume_drop(self, now: float) -> bool:
        plan = self.plan
        dropped = False
        if plan.has_burst_model:
            if self._burst_bad:
                if self._rng.random() < plan.p_bad_to_good:
                    self._burst_bad = False
            elif self._rng.random() < plan.p_good_to_bad:
                self._burst_bad = True
            if self._burst_bad and self._rng.random() < plan.burst_loss_rate:
                dropped = True
        # The independent draw happens even when the burst already hit so
        # the RNG stream consumed per packet does not depend on the
        # drop outcome (keeps the packet->draw alignment stable).
        if plan.loss_rate > 0.0 and self._rng.random() < plan.loss_rate:
            dropped = True
        if dropped:
            self.packets_dropped += 1
        return dropped

    def extra_delay_ms(self, now: float) -> float:
        plan = self.plan
        if plan.has_spikes and self._rng.random() < plan.spike_probability:
            return plan.spike_ms
        return 0.0

    @property
    def in_burst(self) -> bool:
        """Whether the Gilbert–Elliott chain is currently in the BAD state."""
        return self._burst_bad

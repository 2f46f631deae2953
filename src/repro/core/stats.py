"""Middleware instrumentation.

Counts every decision the middleware makes, so the evaluation can report
how much traffic was merged away versus delivered, and how much
bookkeeping the server paid for (the tick cost model charges for
``bound_checks`` and ``flushes``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DyconitStats:
    """Cumulative middleware counters for one run."""

    commits: int = 0
    #: (dyconit, subscriber) enqueues; one commit fans out to many.
    updates_enqueued: int = 0
    #: Updates actually handed to subscribers at flush time.
    updates_delivered: int = 0
    #: Updates superseded in-queue by a newer update with the same merge
    #: key; each one is a message vanilla would have sent and we did not.
    updates_merged: int = 0
    flushes: int = 0
    #: Flushes triggered by the numerical-error bound vs the staleness
    #: bound vs the order (queue-length) bound vs an explicit request
    #: (unsubscribe, shutdown, policy).
    flushes_numerical: int = 0
    flushes_staleness: int = 0
    flushes_order: int = 0
    flushes_forced: int = 0
    #: One per enqueue at commit, one per pending subscription a due pass
    #: or a bounds change examines — the same count on every store.
    bound_checks: int = 0
    subscriptions: int = 0
    unsubscriptions: int = 0
    dyconits_created: int = 0
    dyconits_removed: int = 0
    policy_evaluations: int = 0
    #: Sum of queue residence time (ms) over delivered updates — measures
    #: how much extra latency bounding introduced.
    queue_delay_total_ms: float = 0.0
    queue_delay_samples: int = 0

    @property
    def merge_ratio(self) -> float:
        """Fraction of enqueued updates merged away before delivery."""
        if self.updates_enqueued == 0:
            return 0.0
        return self.updates_merged / self.updates_enqueued

    @property
    def mean_queue_delay_ms(self) -> float:
        if self.queue_delay_samples == 0:
            return 0.0
        return self.queue_delay_total_ms / self.queue_delay_samples

    def as_dict(self) -> dict[str, float]:
        return {
            "commits": self.commits,
            "updates_enqueued": self.updates_enqueued,
            "updates_delivered": self.updates_delivered,
            "updates_merged": self.updates_merged,
            "merge_ratio": self.merge_ratio,
            "flushes": self.flushes,
            "flushes_numerical": self.flushes_numerical,
            "flushes_staleness": self.flushes_staleness,
            "flushes_order": self.flushes_order,
            "flushes_forced": self.flushes_forced,
            "bound_checks": self.bound_checks,
            "subscriptions": self.subscriptions,
            "unsubscriptions": self.unsubscriptions,
            "dyconits_created": self.dyconits_created,
            "dyconits_removed": self.dyconits_removed,
            "policy_evaluations": self.policy_evaluations,
            "mean_queue_delay_ms": self.mean_queue_delay_ms,
        }

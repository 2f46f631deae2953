"""Policy interface.

Policies are the "dynamically managed" part of dyconits: they decide,
per (dyconit, subscriber) pair, how much inconsistency is tolerable right
now. The middleware invokes a policy

* when a subscriber first subscribes to a dyconit (initial bounds), and
* periodically (every ``evaluation_period_ms``) with fresh
  :class:`LoadSignals`, letting the policy re-derive every bound.

Concrete policies live in :mod:`repro.policies`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.core.bounds import Bounds
from repro.core.subscription import Subscriber

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.manager import DyconitSystem


@dataclass(frozen=True, slots=True)
class LoadSignals:
    """Server health signals the adaptive policies react to.

    The game server publishes these once per policy evaluation; a policy
    must treat them as observations, not guarantees.
    """

    now: float
    player_count: int
    #: Duration of the most recent server tick, in (simulated) ms.
    last_tick_duration_ms: float
    #: Exponentially smoothed tick duration, same unit.
    smoothed_tick_duration_ms: float
    #: The server's tick budget (50 ms for a 20 Hz Minecraft-like server).
    tick_budget_ms: float
    #: Aggregate outgoing bandwidth over the last evaluation window, B/s.
    outgoing_bytes_per_second: float

    @property
    def tick_utilization(self) -> float:
        """Smoothed tick duration as a fraction of the budget (1.0 = at
        capacity)."""
        if self.tick_budget_ms <= 0:
            return 0.0
        return self.smoothed_tick_duration_ms / self.tick_budget_ms


class Policy:
    """Base class for bound-management policies."""

    #: How often :meth:`evaluate` runs, in simulated ms.
    evaluation_period_ms: float = 1000.0

    @property
    def name(self) -> str:
        return type(self).__name__

    def on_attach(self, system: "DyconitSystem") -> None:
        """Called once when installed into a :class:`DyconitSystem`."""

    def initial_bounds(
        self, system: "DyconitSystem", dyconit_id: Hashable, subscriber: Subscriber
    ) -> Bounds:
        """Bounds for a brand-new subscription. Defaults to zero
        (vanilla-equivalent) so forgetting to override fails safe."""
        return Bounds.ZERO

    def evaluate(self, system: "DyconitSystem", signals: LoadSignals) -> None:
        """Periodic re-evaluation; override to adjust bounds dynamically.

        The default does nothing, which makes purely static policies
        (zero / infinite / fixed) trivial subclasses.
        """

    def on_subscriber_moved(
        self, system: "DyconitSystem", subscriber: Subscriber
    ) -> None:
        """Hook invoked when a subscriber's avatar crosses a chunk
        boundary; spatial policies refresh that subscriber's bounds
        through :meth:`DyconitSystem.retune_subscriber` (S33)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

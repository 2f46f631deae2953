"""Static uniform bounds."""

from __future__ import annotations

from repro.core.bounds import Bounds
from repro.core.policy import Policy, constant_columns

#: Tolerates roughly half a second of movement drift from a handful of
#: entities before flushing; a middle-of-the-road static setting.
DEFAULT_FIXED_BOUNDS = Bounds(numerical=10.0, staleness_ms=500.0)


class FixedBoundsPolicy(Policy):
    """One static bound for every (dyconit, subscriber) pair.

    The simplest non-trivial policy: it saves bandwidth everywhere but
    cannot distinguish a subscriber standing inside the action from one
    watching from afar — the gap the distance/adaptive policies close.
    """

    def __init__(self, bounds: Bounds = DEFAULT_FIXED_BOUNDS) -> None:
        self.bounds = bounds

    def bounds_columns(self, system, table):
        return constant_columns(self.bounds, len(table))

    def __repr__(self) -> str:
        return f"FixedBoundsPolicy({self.bounds!r})"

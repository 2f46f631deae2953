"""Inconsistency bounds.

A bound caps how much inconsistency one subscriber may observe for one
dyconit. ``Bounds.ZERO`` reproduces vanilla immediate broadcast;
``Bounds.INFINITE`` suppresses delivery entirely (the upper bound on
bandwidth savings, used as the strawman in the evaluation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True, slots=True)
class Bounds:
    """Per-(dyconit, subscriber) inconsistency bound.

    Attributes:
        numerical: maximum accumulated update weight before a flush is
            forced. Zero means every update flushes immediately.
        staleness_ms: maximum age of the oldest queued update before a
            flush is forced. Zero means no update may wait for the next
            tick.
        order: maximum number of *distinct* pending updates (queue
            length) — TACT's order-error dimension. Bounding it caps how
            much batching/reordering a subscriber can observe in one
            flush. Defaults to unbounded, matching the paper's use of the
            numerical and staleness dimensions only.
    """

    numerical: float
    staleness_ms: float
    order: float = math.inf

    ZERO: ClassVar["Bounds"]
    INFINITE: ClassVar["Bounds"]

    def __post_init__(self) -> None:
        # ``not x >= 0`` rather than ``x < 0``: a NaN bound never trips.
        if not self.numerical >= 0:
            raise ValueError(f"numerical bound must be >= 0, got {self.numerical}")
        if not self.staleness_ms >= 0:
            raise ValueError(f"staleness bound must be >= 0, got {self.staleness_ms}")
        if not self.order >= 0:
            raise ValueError(f"order bound must be >= 0, got {self.order}")

    @property
    def is_zero(self) -> bool:
        return self.numerical == 0.0 and self.staleness_ms == 0.0

    @property
    def is_infinite(self) -> bool:
        return (
            math.isinf(self.numerical)
            and math.isinf(self.staleness_ms)
            and math.isinf(self.order)
        )

    def tripped_dimension(
        self, accumulated_error: float, oldest_age_ms: float, pending_count: int = 0
    ) -> str | None:
        """The first dimension the queued state violates, or ``None``.

        The comparison is strict-greater for the numerical and order
        dimensions so a zero bound trips on the first queued update, and
        greater-or-equal for staleness only when the bound is finite.
        Precedence (numerical, then staleness, then order) is what flush
        accounting reports as the flush reason, so it must stay stable.
        """
        if accumulated_error > self.numerical:
            return "numerical"
        if not math.isinf(self.staleness_ms) and oldest_age_ms >= self.staleness_ms:
            return "staleness"
        if pending_count > self.order:
            return "order"
        return None

    def exceeded_by(
        self, accumulated_error: float, oldest_age_ms: float, pending_count: int = 0
    ) -> bool:
        """True if queued state violates this bound and must flush."""
        return (
            self.tripped_dimension(accumulated_error, oldest_age_ms, pending_count)
            is not None
        )

    def scaled(self, factor: float) -> "Bounds":
        """A bound loosened/tightened multiplicatively (used by adaptive
        policies). The order dimension scales too; an infinite order bound
        stays infinite."""
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        return Bounds(
            self.numerical * factor,
            self.staleness_ms * factor,
            self.order if math.isinf(self.order) else self.order * factor,
        )

    def clamped(self, low: "Bounds", high: "Bounds") -> "Bounds":
        """Component-wise clamp of this bound into [low, high]."""
        return Bounds(
            min(max(self.numerical, low.numerical), high.numerical),
            min(max(self.staleness_ms, low.staleness_ms), high.staleness_ms),
            min(max(self.order, low.order), high.order),
        )


def tripped_dimension_of(
    error: float, age_ms: float, count: int, numerical: float, staleness_ms: float, order: float
) -> str | None:
    """:meth:`Bounds.tripped_dimension` on plain floats: the same
    comparisons in the same precedence, without building a ``Bounds``."""
    if error > numerical:
        return "numerical"
    if age_ms >= staleness_ms and staleness_ms != math.inf:
        return "staleness"
    if count > order:
        return "order"
    return None


Bounds.ZERO = Bounds(0.0, 0.0)
Bounds.INFINITE = Bounds(math.inf, math.inf)

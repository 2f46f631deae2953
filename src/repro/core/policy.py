"""Policy interface.

Policies are the "dynamically managed" part of dyconits: they decide,
per (dyconit, subscriber) pair, how much inconsistency is tolerable right
now. A policy states its bounds once, as columns (S35):
:meth:`Policy.bounds_columns` maps a :class:`PairTable` of (dyconit,
subscriber position) pairs (S36) to ``(numerical, staleness_ms, order)``
float64 columns. The middleware subscribes a changed view with them, and
a policy re-derives bounds through them on a chunk crossing
(:meth:`Policy.on_subscriber_moved`) and every ``evaluation_period_ms``
(:meth:`Policy.evaluate`, with fresh :class:`LoadSignals`).

Concrete policies live in :mod:`repro.policies`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

import numpy as np

from repro.core.bounds import Bounds
from repro.core.subscription import Subscriber
from repro.world.geometry import Vec3

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.manager import DyconitSystem


def xz_rows(positions: Iterable[Vec3 | None]) -> np.ndarray:
    """``(x, z)`` of each position as a ``(count, 2)`` float64 array, a
    NaN row for ``None``."""
    rows = [
        (math.nan, math.nan) if position is None else (position.x, position.z)
        for position in positions
    ]
    return np.array(rows, dtype=float).reshape(-1, 2)


@dataclass(frozen=True, slots=True, eq=False)
class PairTable:
    """(dyconit, subscriber position) pairs as columns (S36): what
    :meth:`Policy.bounds_columns` derives bounds for.

    Pair ``i`` is ``(dyconit_ids[id_rows[i]], positions[position_rows[i]])``.
    The ids are distinct, so a policy resolves each one once and gathers
    per pair; ``positions`` is ``(x, z)`` per subscriber (:func:`xz_rows`),
    a NaN row for one without a position. A retune sweep is every client
    pair over every dyconit; a view change or a chunk crossing is one
    position row paired with each of its ids (:meth:`at`).
    """

    dyconit_ids: Sequence[Hashable]
    #: Per pair, its row in ``dyconit_ids``.
    id_rows: np.ndarray
    positions: np.ndarray
    #: Per pair, its row in ``positions``.
    position_rows: np.ndarray

    @classmethod
    def at(cls, dyconit_ids: Sequence[Hashable], position: Vec3 | None) -> "PairTable":
        """Each of ``dyconit_ids`` paired with one position."""
        count = len(dyconit_ids)
        return cls(
            dyconit_ids, np.arange(count), xz_rows([position]), np.zeros(count, dtype=np.intp)
        )

    def __len__(self) -> int:
        return len(self.id_rows)

    def horizontal_distances(self, centroids: Sequence[tuple[float, float]]) -> np.ndarray:
        """Per pair, the horizontal distance from its position to its
        id's centroid, as ``Vec3.horizontal_distance_to`` computes it.
        ``centroids`` holds one ``(x, z)`` per id of ``dyconit_ids``, in
        order; NaN where the position or the centroid is NaN."""
        centroids = np.fromiter(
            chain.from_iterable(centroids), float, 2 * len(centroids)
        ).reshape(-1, 2)
        # ``take`` gathers rows several times faster than ``[rows]``; one
        # position row (a view change, a crossing) broadcasts instead.
        positions = self.positions
        if len(positions) > 1:
            positions = positions.take(self.position_rows, axis=0)
        offset = positions - centroids.take(self.id_rows, axis=0)
        offset *= offset  # (dx * dx, dz * dz)
        squared = offset[:, 0] + offset[:, 1]
        return np.sqrt(squared, out=squared)


def constant_columns(bounds: Bounds, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``bounds`` on every row of a ``count``-row column."""
    return (
        np.full(count, bounds.numerical, dtype=float),
        np.full(count, bounds.staleness_ms, dtype=float),
        np.full(count, bounds.order, dtype=float),
    )


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

    def bounds_columns(
        self, system: "DyconitSystem", table: PairTable
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bounds of the pairs of ``table`` as ``(numerical,
        staleness_ms, order)`` float64 columns, entry ``i`` for pair
        ``i``. Defaults to zero (vanilla-equivalent) so forgetting to
        override fails safe."""
        return constant_columns(Bounds.ZERO, len(table))

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

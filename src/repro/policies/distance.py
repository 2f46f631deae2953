"""Distance-based bounds.

Bounds grow with the chunk-grid distance ``d`` between the subscriber's
avatar and the dyconit's area:

    staleness(d)  = staleness_per_chunk_ms * d
    numerical(d)  = max(numerical_per_chunk * d ** numerical_exponent,
                        numerical_weight_rate * staleness(d) / 1000)

so the player's own surroundings replicate at full fidelity (d = 0 gives
zero bounds) while the periphery of the view tolerates progressively more
drift — where human players cannot perceive it. This is the spatial
inconsistency gradient that interest-management research (Donnybrook
et al.) exploits, recast as conit bounds.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from repro.core.bounds import Bounds
from repro.core.partition import GLOBAL_DYCONIT, centroid_of
from repro.core.policy import Policy, constant_columns
from repro.core.subscription import Subscriber
from repro.world.geometry import CHUNK_SIZE, Vec3

#: Bounds for the global (chat) dyconit: chat batches briefly but a chat
#: event's weight (10) exceeds the numerical bound, so messages flush on
#: arrival of the next event or within a quarter second.
GLOBAL_BOUNDS = Bounds(numerical=5.0, staleness_ms=250.0)

#: The centroid cache is emptied when it reaches this many ids (a view
#: holds ~120; only a world-crossing trek ever gets here).
_CENTROID_CACHE_SIZE = 16384

#: The centroid :meth:`DistanceBasedPolicy.bounds_columns` gives an id with
#: no place in the world: NaN marks the rows that get global_bounds.
_NOWHERE = (math.nan, math.nan)


class DistanceBasedPolicy(Policy):
    """Bounds proportional to avatar-to-dyconit distance."""

    def __init__(
        self,
        numerical_per_chunk: float = 2.0,
        numerical_exponent: float = 2.0,
        staleness_per_chunk_ms: float = 100.0,
        numerical_weight_rate: float = 250.0,
        min_chunk_distance: float = 0.25,
        global_bounds: Bounds = GLOBAL_BOUNDS,
    ) -> None:
        if numerical_per_chunk < 0 or staleness_per_chunk_ms < 0:
            raise ValueError("distance-policy coefficients must be >= 0")
        if numerical_weight_rate < 0:
            raise ValueError("numerical_weight_rate must be >= 0")
        if min_chunk_distance < 0:
            raise ValueError("min_chunk_distance must be >= 0")
        self.numerical_per_chunk = numerical_per_chunk
        self.numerical_exponent = numerical_exponent
        self.staleness_per_chunk_ms = staleness_per_chunk_ms
        #: Division of labour between the two conit dimensions: staleness
        #: paces *routine* update flow, so the numerical bound must sit
        #: above the weight a normally-busy dyconit accumulates within one
        #: staleness period — otherwise it trips every tick in dense areas
        #: and defeats merging. It is therefore sized as a rate budget
        #: (weight/second × staleness) and exists to catch *bursts*: a
        #: mass block edit or explosion exceeds it instantly and flushes
        #: ahead of the staleness deadline.
        self.numerical_weight_rate = numerical_weight_rate
        #: Distance floor: even the subscriber's own chunk gets this small
        #: (non-zero) distance, so a load-adaptive scale factor can loosen
        #: *all* bounds under overload — in a packed village everyone is in
        #: everyone's chunk, and with a hard zero there would be nothing
        #: left to shed. At factor 1 the resulting nearby bounds are
        #: imperceptible (numerical 2*0.25^2 = 0.125 blocks).
        self.min_chunk_distance = min_chunk_distance
        self.global_bounds = global_bounds
        #: dyconit id -> centroid ``(x, z)``, or ``None`` for ids with no
        #: place in the world (global). An id's centroid never changes (a
        #: policy serves one system, hence one partitioner), and a bound
        #: sweep asks for it once per (subscriber, dyconit) pair.
        self._centroids: dict[Hashable, tuple[float, float] | None] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_centroids"]  # derived data: keep it out of checkpoints
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._centroids = {}

    # ------------------------------------------------------------------
    # Bound surface
    # ------------------------------------------------------------------

    def bounds_columns(
        self, system, dyconit_ids: list[Hashable], positions: list[Vec3 | None]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bound surface over a column of (dyconit, position) pairs
        (a view change, a retune, S23, or a chunk crossing, S33):
        ``(numerical, staleness_ms, order)`` float64 columns. The chunk
        distance is ``max(min_chunk_distance, horizontal distance /
        CHUNK_SIZE - 0.5)``; ``global_bounds`` for ids with no place in
        the world and for subscribers with no position. The power term
        is Python's own ``**``: ``np.power`` rounds a few inputs
        differently, and the bounds stay those of the scalar formula in
        the module docstring bit for bit (S35)."""
        if any(position is None for position in positions):
            return self._columns_without_positions(system, dyconit_ids, positions)
        by_id = {}
        for dyconit_id in dict.fromkeys(dyconit_ids):
            try:
                centroid = self._centroids[dyconit_id]
            except KeyError:
                centroid = self._remember_centroid(system, dyconit_id)
            by_id[dyconit_id] = _NOWHERE if centroid is None else centroid
        centroids = [by_id[dyconit_id] for dyconit_id in dyconit_ids]
        cx = np.array([centroid[0] for centroid in centroids])
        cz = np.array([centroid[1] for centroid in centroids])
        dx = np.array([position.x for position in positions], dtype=float) - cx
        dz = np.array([position.z for position in positions], dtype=float) - cz
        chunk_distance = np.sqrt(dx * dx + dz * dz) / CHUNK_SIZE - 0.5
        floor = self.min_chunk_distance
        chunk_distance = np.where(chunk_distance > floor, chunk_distance, floor)
        # The surface, per entry.
        staleness = self.staleness_per_chunk_ms * chunk_distance
        exponent = self.numerical_exponent
        # A zero distance is Bounds.ZERO below (and 0.0 ** a negative
        # exponent would raise).
        power = np.array([c**exponent if c > 0 else 0.0 for c in chunk_distance.tolist()])
        surface = self.numerical_per_chunk * power
        rate = self.numerical_weight_rate * staleness / 1000.0
        numerical = np.where(rate > surface, rate, surface)
        zero = chunk_distance <= 0  # Bounds.ZERO
        numerical[zero] = 0.0
        staleness[zero] = 0.0
        order = np.full(len(positions), math.inf)
        glob = self.global_bounds
        nowhere = np.isnan(cx)
        numerical[nowhere] = glob.numerical
        staleness[nowhere] = glob.staleness_ms
        order[nowhere] = glob.order
        return numerical, staleness, order

    def _columns_without_positions(self, system, dyconit_ids, positions):
        """:meth:`bounds_columns` where some subscribers have no position:
        their rows get ``global_bounds``."""
        numerical, staleness, order = constant_columns(self.global_bounds, len(positions))
        placed = [i for i, position in enumerate(positions) if position is not None]
        if placed:
            numerical[placed], staleness[placed], order[placed] = self.bounds_columns(
                system, [dyconit_ids[i] for i in placed], [positions[i] for i in placed]
            )
        return numerical, staleness, order

    def _remember_centroid(
        self, system, dyconit_id: Hashable
    ) -> tuple[float, float] | None:
        centroid = None
        if dyconit_id != GLOBAL_DYCONIT:
            center = centroid_of(dyconit_id, system.partitioner)
            if center is not None:
                centroid = (center.x, center.z)
        if len(self._centroids) >= _CENTROID_CACHE_SIZE:
            self._centroids.clear()  # a long trek leaves dead ids behind
        self._centroids[dyconit_id] = centroid
        return centroid

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------

    def on_subscriber_moved(self, system, subscriber: Subscriber) -> None:
        # Crossing a chunk border shifts every distance; re-derive the
        # subscriber's whole bound set as one column (S33).
        system.retune_subscriber(subscriber, self.bounds_columns)

    def __repr__(self) -> str:
        return (
            f"DistanceBasedPolicy(numerical={self.numerical_per_chunk}"
            f"*d^{self.numerical_exponent}, staleness={self.staleness_per_chunk_ms}*d ms)"
        )

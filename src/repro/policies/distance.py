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
from itertools import repeat
from typing import Hashable

import numpy as np

from repro.core.bounds import Bounds
from repro.core.partition import centroid_xz
from repro.core.policy import PairTable, Policy
from repro.core.subscription import Subscriber
from repro.world.geometry import CHUNK_SIZE

#: Bounds for the global (chat) dyconit: chat batches briefly but a chat
#: event's weight (10) exceeds the numerical bound, so messages flush on
#: arrival of the next event or within a quarter second.
GLOBAL_BOUNDS = Bounds(numerical=5.0, staleness_ms=250.0)

#: The centroid cache is emptied when it reaches this many ids (a view
#: holds ~120; only a world-crossing trek ever gets here).
_CENTROID_CACHE_SIZE = 16384

#: How far (relative, then absolute) ``rate`` must beat np.power's
#: estimate of the surface for the surface to lose to it whatever libm
#: ``pow`` rounds: np.power is within a few ulps of it (a relative 1e-15),
#: and the absolute term covers results numpy flushes to zero.
_POW_SLACK = 1.0 + 1e-9
_POW_FLOOR = 1e-300


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
        #: dyconit id -> centroid ``(x, z)``, NaN for ids with no place in
        #: the world (global). An id's centroid never changes (a policy
        #: serves one system, hence one partitioner), and every bound
        #: derivation asks for it.
        self._centroids: dict[Hashable, tuple[float, float]] = {}

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

    def bounds_columns(self, system, table: PairTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bound surface over the pairs of ``table`` (a view change, a
        retune, S23, or a chunk crossing, S33): ``(numerical,
        staleness_ms, order)`` float64 columns. Each id's centroid is
        looked up once and gathered per pair (S36). The chunk distance is
        ``max(min_chunk_distance, horizontal distance / CHUNK_SIZE -
        0.5)``; ``global_bounds`` for ids with no place in the world and
        for subscribers with no position. The power term is libm ``pow``,
        as Python's own ``**`` computes it: ``np.power`` rounds a few
        inputs differently, and the bounds stay those of the scalar
        formula in the module docstring bit for bit (S35). It is
        evaluated only where it can win the maximum: np.power's estimate
        rules out the rest (S37)."""
        ids = table.dyconit_ids
        centroids = list(map(self._centroids.get, ids))
        if None in centroids:
            centroids = [
                self._remember_centroid(system, dyconit_id) if centroid is None else centroid
                for dyconit_id, centroid in zip(ids, centroids)
            ]
        distance = table.horizontal_distances(centroids)
        nowhere = np.isnan(distance)
        chunk_distance = distance / CHUNK_SIZE - 0.5
        floor = self.min_chunk_distance
        # ``max(floor, d)``; fmax takes the floor for a NaN distance too.
        chunk_distance = np.fmax(chunk_distance, floor)
        # The surface, per entry.
        staleness = self.staleness_per_chunk_ms * chunk_distance
        rate = self.numerical_weight_rate * staleness / 1000.0
        # A zero distance is Bounds.ZERO below (and 0.0 ** a negative
        # exponent would raise); over a positive floor there is none.
        zero = None if floor > 0.0 else chunk_distance <= 0
        if zero is not None and zero.any():
            chunk_distance = np.where(zero, 1.0, chunk_distance)
        # ``numerical`` is ``max(surface, rate)``. np.power is within a few
        # ulps of libm pow, so where ``rate`` beats that estimate of the
        # surface by more than the slack, the maximum is ``rate`` whatever
        # pow's last bits: pow runs only on the other entries.
        estimate = np.power(chunk_distance, self.numerical_exponent)
        estimate *= self.numerical_per_chunk * _POW_SLACK
        estimate += _POW_FLOOR
        numerical = rate
        certain = rate > estimate
        if not certain.all():
            rows = (~certain).nonzero()[0]
            lengths = chunk_distance[rows].tolist()
            surface = self.numerical_per_chunk * np.fromiter(
                map(math.pow, lengths, repeat(self.numerical_exponent)), float, len(lengths)
            )
            candidates = rate[rows]
            numerical[rows] = np.where(candidates > surface, candidates, surface)
        if zero is not None:
            numerical[zero] = 0.0
            staleness[zero] = 0.0
        order = np.full(len(distance), math.inf)
        if nowhere.any():
            glob = self.global_bounds
            numerical[nowhere] = glob.numerical
            staleness[nowhere] = glob.staleness_ms
            order[nowhere] = glob.order
        return numerical, staleness, order

    def _remember_centroid(self, system, dyconit_id: Hashable) -> tuple[float, float]:
        centroid = centroid_xz(dyconit_id, system.partitioner)
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

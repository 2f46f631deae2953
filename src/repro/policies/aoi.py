"""Area-of-interest cutoff: what existing games do.

Inside a small radius around the player everything replicates at full
fidelity (zero bounds); outside it nothing is delivered at all (infinite
bounds). This is the abstract of the classic interest-management
technique the paper contrasts against: it saves bandwidth, but the
inconsistency beyond the cutoff is *unbounded* — exactly the failure mode
the E3 inconsistency experiment makes visible.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from repro.core.partition import GLOBAL_DYCONIT, centroid_of
from repro.core.policy import Policy
from repro.core.subscription import Subscriber
from repro.world.geometry import CHUNK_SIZE, Vec3

#: A row of :meth:`InterestCutoffPolicy.bounds_columns` that gets
#: ``Bounds.ZERO`` whatever the distance.
_NOWHERE = (math.nan,) * 4


class InterestCutoffPolicy(Policy):
    """Zero bounds within ``aoi_radius_chunks``, infinite outside."""

    def __init__(self, aoi_radius_chunks: float = 2.0) -> None:
        if aoi_radius_chunks < 0:
            raise ValueError(f"AOI radius must be >= 0, got {aoi_radius_chunks}")
        self.aoi_radius_chunks = aoi_radius_chunks

    def bounds_columns(
        self, system, dyconit_ids: list[Hashable], positions: list[Vec3 | None]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(numerical, staleness_ms, order)`` float64 columns over a
        column of (dyconit, position) pairs (a view change or a chunk
        crossing, S33): ``Bounds.ZERO`` within ``aoi_radius_chunks + 0.5``
        chunks of the dyconit's centroid and for global, non-spatial and
        position-less rows, ``Bounds.INFINITE`` beyond — the distance as
        ``Vec3.horizontal_length`` computes it."""
        centroids: dict[Hashable, Vec3 | None] = {}
        rows = []  # (x, z, centroid x, centroid z); NaN: always ZERO
        for dyconit_id, position in zip(dyconit_ids, positions):
            centroid = None
            if position is not None and dyconit_id != GLOBAL_DYCONIT:
                if dyconit_id not in centroids:
                    centroids[dyconit_id] = centroid_of(dyconit_id, system.partitioner)
                centroid = centroids[dyconit_id]
            if centroid is None:
                rows.append(_NOWHERE)
            else:
                rows.append((position.x, position.z, centroid.x, centroid.z))
        x, z, cx, cz = np.array(rows, dtype=float).reshape(-1, 4).T
        dx = x - cx
        dz = z - cz
        # ``not distance <= radius``, with a NaN row inside.
        outside = np.sqrt(dx * dx + dz * dz) / CHUNK_SIZE > self.aoi_radius_chunks + 0.5
        bound = np.where(outside, math.inf, 0.0)
        return bound, bound.copy(), np.full(len(rows), math.inf)

    def on_subscriber_moved(self, system, subscriber: Subscriber) -> None:
        system.retune_subscriber(subscriber, self.bounds_columns)

    def __repr__(self) -> str:
        return f"InterestCutoffPolicy(radius={self.aoi_radius_chunks} chunks)"

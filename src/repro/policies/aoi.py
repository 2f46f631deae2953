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

import numpy as np

from repro.core.partition import centroid_xz
from repro.core.policy import PairTable, Policy
from repro.core.subscription import Subscriber
from repro.world.geometry import CHUNK_SIZE


class InterestCutoffPolicy(Policy):
    """Zero bounds within ``aoi_radius_chunks``, infinite outside."""

    def __init__(self, aoi_radius_chunks: float = 2.0) -> None:
        if aoi_radius_chunks < 0:
            raise ValueError(f"AOI radius must be >= 0, got {aoi_radius_chunks}")
        self.aoi_radius_chunks = aoi_radius_chunks

    def bounds_columns(self, system, table: PairTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(numerical, staleness_ms, order)`` float64 columns over the
        pairs of ``table`` (a view change or a chunk crossing, S33):
        ``Bounds.ZERO`` within ``aoi_radius_chunks + 0.5`` chunks of the
        dyconit's centroid and for global, non-spatial and position-less
        pairs, ``Bounds.INFINITE`` beyond — the distance as
        ``Vec3.horizontal_length`` computes it. Each id's centroid is
        resolved once and gathered per pair (S36)."""
        partitioner = system.partitioner
        distance = table.horizontal_distances(
            [centroid_xz(dyconit_id, partitioner) for dyconit_id in table.dyconit_ids]
        )
        # ``not distance <= radius``, with a NaN pair inside.
        outside = distance / CHUNK_SIZE > self.aoi_radius_chunks + 0.5
        bound = np.where(outside, math.inf, 0.0)
        return bound, bound.copy(), np.full(len(table), math.inf)

    def on_subscriber_moved(self, system, subscriber: Subscriber) -> None:
        system.retune_subscriber(subscriber, self.bounds_columns)

    def __repr__(self) -> str:
        return f"InterestCutoffPolicy(radius={self.aoi_radius_chunks} chunks)"

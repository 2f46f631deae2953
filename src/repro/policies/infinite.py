"""Infinite-bounds policy: the bandwidth-savings upper bound."""

from __future__ import annotations

from repro.core.bounds import Bounds
from repro.core.policy import Policy, constant_columns


class InfiniteBoundsPolicy(Policy):
    """Every subscription gets infinite bounds: updates queue forever.

    Nothing is ever delivered through the middleware (players still get
    initial state sync from interest management). Useless as a real
    policy — inconsistency grows without bound — but it measures the
    maximum traffic the middleware *could* remove, the yardstick the
    relative-savings numbers are read against.
    """

    def bounds_columns(self, system, table):
        return constant_columns(Bounds.INFINITE, len(table))

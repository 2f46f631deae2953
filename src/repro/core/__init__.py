"""Dyconit middleware (S5) — the paper's primary contribution.

A *dyconit* (dynamic consistency unit) bounds the inconsistency a
subscriber may observe for a partition of the game world, along two
conit-style dimensions:

* **numerical error** — accumulated weight of committed-but-undelivered
  updates, and
* **staleness** — age of the oldest undelivered update.

Game code commits updates to the middleware instead of broadcasting them;
the middleware queues them per subscriber and flushes a subscriber's
queue the moment either bound is exceeded. Queued updates that supersede
each other (same merge key) are collapsed before sending — that merging
is where the paper's bandwidth savings come from. Policies set bounds
per (dyconit, subscriber) dynamically and may repartition the world at
runtime.
"""

from repro.core.bounds import Bounds
from repro.core.dyconit import Dyconit, SubscriptionState
from repro.core.manager import DyconitSystem
from repro.core.partition import (
    ChunkPartitioner,
    DyconitPartitioner,
    GlobalPartitioner,
    RegionPartitioner,
)
from repro.core.policy import LoadSignals, Policy
from repro.core.stats import DyconitStats
from repro.core.subscription import Subscriber
from repro.core.update import Update

__all__ = [
    "Bounds",
    "Update",
    "Dyconit",
    "SubscriptionState",
    "Subscriber",
    "DyconitSystem",
    "DyconitStats",
    "Policy",
    "LoadSignals",
    "DyconitPartitioner",
    "ChunkPartitioner",
    "RegionPartitioner",
    "GlobalPartitioner",
]

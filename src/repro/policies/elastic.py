"""Elastic repartitioning: dynamic dyconit creation and merging.

The abstract's second "dynamic" axis: *"The Dyconits system controls,
dynamically and policy-based, the creation of dyconits and the management
of their bounds."* This policy wraps an inner bound policy (distance or
adaptive) and additionally reshapes the partitioning at runtime:

* chunk dyconits inside a cold region (few commits per second across all
  of its chunks) are **merged** into one region-level dyconit, cutting
  per-subscription bookkeeping in quiet areas;
* a merged region that heats up is **split** back into per-chunk
  dyconits, restoring fine-grained spatial bound targeting where the
  action is.

The hysteresis gap between the cold and hot thresholds prevents
merge/split thrashing at the boundary.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.policy import LoadSignals, Policy
from repro.core.subscription import Subscriber
from repro.policies.distance import DistanceBasedPolicy


class ElasticPartitioningPolicy(Policy):
    """Inner bound policy + runtime merge/split of cold/hot areas."""

    def __init__(
        self,
        inner: Policy | None = None,
        region_size: int = 4,
        cold_commits_per_second: float = 1.0,
        hot_commits_per_second: float = 8.0,
        evaluation_period_ms: float = 2000.0,
    ) -> None:
        if region_size < 2:
            raise ValueError(f"region size must be >= 2, got {region_size}")
        if hot_commits_per_second <= cold_commits_per_second:
            raise ValueError(
                "hot threshold must exceed cold threshold (hysteresis), got "
                f"cold={cold_commits_per_second}, hot={hot_commits_per_second}"
            )
        self.inner = inner if inner is not None else DistanceBasedPolicy()
        self.region_size = region_size
        self.cold_commits_per_second = cold_commits_per_second
        self.hot_commits_per_second = hot_commits_per_second
        self.evaluation_period_ms = evaluation_period_ms
        self._last_commit_counts: dict[Hashable, int] = {}
        self._last_evaluation_ms: float | None = None
        #: Commit rates computed in the most recent evaluation window
        #: (diagnostic; the fuzz harness checks these against a reference
        #: model to pin down baseline accounting across repartitions).
        self.last_window_rates: dict[Hashable, float] = {}
        self.merges = 0
        self.splits = 0

    # ------------------------------------------------------------------
    # Bound management delegates to the inner policy
    # ------------------------------------------------------------------

    def on_attach(self, system) -> None:
        self.inner.on_attach(system)

    def bounds_columns(self, system, table):
        return self.inner.bounds_columns(system, table)

    def on_subscriber_moved(self, system, subscriber: Subscriber) -> None:
        self.inner.on_subscriber_moved(system, subscriber)

    # ------------------------------------------------------------------
    # Repartitioning
    # ------------------------------------------------------------------

    def _region_of(self, dyconit_id: Hashable) -> tuple[int, int] | None:
        if (
            isinstance(dyconit_id, tuple)
            and len(dyconit_id) == 3
            and dyconit_id[0] == "chunk"
        ):
            return (dyconit_id[1] // self.region_size, dyconit_id[2] // self.region_size)
        return None

    def _merged_id(self, region: tuple[int, int]) -> Hashable:
        return ("region", self.region_size, region[0], region[1])

    def evaluate(self, system, signals: LoadSignals) -> None:
        self.inner.evaluate(system, signals)

        window_s = (
            (signals.now - self._last_evaluation_ms) / 1000.0
            if self._last_evaluation_ms is not None
            else None
        )
        self._last_evaluation_ms = signals.now

        current_counts = {
            dyconit.dyconit_id: dyconit.commit_count for dyconit in system.dyconits()
        }
        if window_s is None or window_s <= 0:
            self._last_commit_counts = current_counts
            return

        rates: dict[Hashable, float] = {}
        for dyconit_id, count in current_counts.items():
            previous = self._last_commit_counts.get(dyconit_id, 0)
            rates[dyconit_id] = (count - previous) / window_s
        self._last_commit_counts = current_counts
        self.last_window_rates = rates

        self._merge_cold_regions(system, rates)
        self._split_hot_regions(system, rates)

    def _merge_cold_regions(self, system, rates: dict[Hashable, float]) -> None:
        by_region: dict[tuple[int, int], list[Hashable]] = {}
        for dyconit_id, rate in rates.items():
            region = self._region_of(dyconit_id)
            if region is not None:
                by_region.setdefault(region, []).append(dyconit_id)
        for region, members in by_region.items():
            if len(members) < 2:
                continue
            total_rate = sum(rates[dyconit_id] for dyconit_id in members)
            if total_rate <= self.cold_commits_per_second:
                merged_id = self._merged_id(region)
                system.merge_dyconits(members, merged_id)
                # Merging sums the members' commit counters into the
                # target, so the target's baseline must absorb the
                # members' baselines: diffing the merged counter against
                # a zero baseline next window would misread the whole
                # merged history as fresh traffic and instantly split a
                # region that was cold enough to merge (thrash).
                baselines = self._last_commit_counts
                carried = baselines.pop(merged_id, 0)
                for member in members:
                    carried += baselines.pop(member, 0)
                baselines[merged_id] = carried
                self.merges += 1
                self._count_repartition(system, "merge")

    def _split_hot_regions(self, system, rates: dict[Hashable, float]) -> None:
        for dyconit_id, rate in list(rates.items()):
            if (
                isinstance(dyconit_id, tuple)
                and len(dyconit_id) == 4
                and dyconit_id[0] == "region"
                and dyconit_id[1] == self.region_size
                and rate >= self.hot_commits_per_second
            ):
                released = system.split_dyconit(dyconit_id)
                # The region's counter (and its baseline) die with the
                # split; the released chunks restart counting from zero.
                # A leftover region baseline would go negative if the
                # region re-merges later; a stale chunk baseline would
                # suppress the chunks' real post-split rates.
                baselines = self._last_commit_counts
                baselines.pop(dyconit_id, None)
                for source_id in released:
                    baselines[source_id] = 0
                self.splits += 1
                self._count_repartition(system, "split")

    @staticmethod
    def _count_repartition(system, operation: str) -> None:
        telemetry = getattr(system, "telemetry", None)
        if telemetry is not None and telemetry.enabled:
            telemetry.counter("elastic_repartitions_total", operation=operation).increment()

    def __repr__(self) -> str:
        return (
            f"ElasticPartitioningPolicy(inner={self.inner!r}, "
            f"region={self.region_size}, merges={self.merges}, splits={self.splits})"
        )

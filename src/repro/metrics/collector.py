"""Metric primitives: counters, gauges, time series, histograms.

Everything here is a plain in-memory structure with zero background
machinery: experiments sample and read metrics synchronously from the
simulation loop, then summarize at the end of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (amount={amount})")
        self.value += amount

    def add(self, amount: float = 1.0) -> None:
        """Alias for :meth:`increment` (same verb as :meth:`Gauge.add`)."""
        self.increment(amount)

    def reset(self) -> None:
        self.value = 0.0


@dataclass
class Gauge:
    """A value that can move in both directions."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0


@dataclass
class TimeSeries:
    """Append-only (time, value) samples."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time series {self.name} must be appended in time order: "
                f"last={self.times[-1]}, got {time}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def window(self, start: float, end: float) -> list[float]:
        """Values with timestamps in [start, end)."""
        return [
            value
            for time, value in zip(self.times, self.values)
            if start <= time < end
        ]



class Histogram:
    """Log-bucketed histogram for latency/staleness style distributions.

    Buckets grow geometrically from ``min_value`` so that relative error
    of any reported quantile is bounded by ``precision`` — the same idea
    as HDR histograms, sized for simulation-scale sample counts.
    """

    def __init__(self, name: str, min_value: float = 0.01, precision: float = 0.02) -> None:
        if min_value <= 0:
            raise ValueError(f"min_value must be positive, got {min_value}")
        if not (0 < precision < 1):
            raise ValueError(f"precision must be in (0, 1), got {precision}")
        self.name = name
        self.min_value = min_value
        self.growth = 1.0 + precision
        self._log_growth = math.log(self.growth)
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.max_value = float("-inf")
        self.min_seen = float("inf")
        self._zero_count = 0

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name} takes non-negative values, got {value}")
        self.count += 1
        self.total += value
        self.max_value = max(self.max_value, value)
        self.min_seen = min(self.min_seen, value)
        if value < self.min_value:
            self._zero_count += 1
            return
        bucket = int(math.log(value / self.min_value) / self._log_growth)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1

    def record_many(self, values: Iterable[float]) -> None:
        """:meth:`record` each value in turn, bit for bit: the same count,
        total (added in the same order), extremes and buckets, and a
        value that raises leaves the ones before it recorded."""
        min_value = self.min_value
        log_growth = self._log_growth
        buckets = self._buckets
        log = math.log
        count, total = self.count, self.total
        high, low, zeros = self.max_value, self.min_seen, self._zero_count
        try:
            for value in values:
                if value < 0:
                    raise ValueError(
                        f"histogram {self.name} takes non-negative values, got {value}"
                    )
                count += 1
                total += value
                if value > high:  # max(high, value), first argument on ties
                    high = value
                if value < low:
                    low = value
                if value < min_value:
                    zeros += 1
                    continue
                bucket = int(log(value / min_value) / log_growth)
                buckets[bucket] = buckets.get(bucket, 0) + 1
        finally:
            self.count, self.total = count, total
            self.max_value, self.min_seen, self._zero_count = high, low, zeros

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1])."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = self._zero_count
        if seen >= target:
            return 0.0
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen >= target:
                # Representative value: geometric middle of the bucket.
                return self.min_value * self.growth ** (bucket + 0.5)
        return self.max_value

    def reset(self) -> None:
        """Forget every sample; bucketing configuration is preserved."""
        self._buckets.clear()
        self.count = 0
        self.total = 0.0
        self.max_value = float("-inf")
        self.min_seen = float("inf")
        self._zero_count = 0

    def merge(self, other: "Histogram") -> None:
        if other.min_value != self.min_value or other.growth != self.growth:
            raise ValueError("histograms with different bucketing cannot merge")
        self.count += other.count
        self.total += other.total
        self.max_value = max(self.max_value, other.max_value)
        self.min_seen = min(self.min_seen, other.min_seen)
        self._zero_count += other._zero_count
        for bucket, count in other._buckets.items():
            self._buckets[bucket] = self._buckets.get(bucket, 0) + count


class MetricsRegistry:
    """Named registry so components share metric instances by name."""

    def __init__(self) -> None:
        self._series: dict[str, TimeSeries] = {}
        self._histograms: dict[str, Histogram] = {}

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def histogram(self, name: str, **kwargs) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, **kwargs)
        return self._histograms[name]

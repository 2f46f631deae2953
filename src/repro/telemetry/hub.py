"""The telemetry hub: labeled metrics + hierarchical spans on one timeline.

One :class:`Telemetry` instance is the single place every layer reports
into — the server engine, the dyconit middleware, the policies, the
simulation kernel, and the experiment runner all share it, so a span for
``tick.flush`` and a ``trace.flush`` event from the middleware land on
the same (sim time, wall time) timeline and can be correlated.

Design constraints, in priority order:

1. **Free when off.** The default hub is disabled; hot paths pay exactly
   one attribute check (``telemetry.enabled``) and, for spans, one call
   returning a shared no-op singleton — no allocation per span. The E5
   microbenchmark tracks this.
2. **Two clocks.** Every span/event records *wall* time (what the
   implementation costs, via ``perf_counter``) and *sim* time (when in
   the experiment it happened, via an injected time source), because the
   two answer different questions ("is commit slow?" vs "did flushes
   cluster at the burst?").
3. **Bounded memory.** Raw span/event records are kept in bounded
   buffers (drops are counted, never silent); per-span-name duration
   histograms retain full-percentile fidelity regardless of drops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.metrics.collector import Counter, Gauge, Histogram

#: Labels as stored on records and metric keys: sorted (key, value) pairs.
LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: dict[str, object]) -> LabelSet:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished span on the timeline."""

    name: str
    span_id: int
    parent_id: int | None
    sim_time: float  #: sim ms at span start
    wall_start: float  #: perf_counter seconds at start (monotonic, run-relative)
    duration_ms: float  #: wall-clock duration in milliseconds
    labels: LabelSet = ()


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One point event on the timeline (e.g. a middleware decision)."""

    kind: str
    sim_time: float
    wall_time: float
    fields: LabelSet = ()


class _NullSpan:
    """Shared no-op span handed out by a disabled hub (zero allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NULL_SPAN = _NullSpan()


class _Span:
    """A live span; records itself into the hub on exit."""

    __slots__ = ("hub", "name", "labels", "span_id", "parent", "child_ms", "sim_time", "wall_start")

    def __init__(self, hub: "Telemetry", name: str, labels: LabelSet) -> None:
        self.hub = hub
        self.name = name
        self.labels = labels

    def __enter__(self) -> "_Span":
        hub = self.hub
        hub._span_seq += 1
        self.span_id = hub._span_seq
        stack = hub._span_stack
        self.parent = stack[-1] if stack else None
        self.child_ms = 0.0
        stack.append(self)
        self.sim_time = hub.time_source()
        self.wall_start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        duration_ms = (time.perf_counter() - self.wall_start) * 1000.0
        hub = self.hub
        stack = hub._span_stack
        if stack and stack[-1] is self:
            stack.pop()
        if self.parent is not None:
            self.parent.child_ms += duration_ms
        hub._finish_span(self, duration_ms)


class Telemetry:
    """Hub for labeled counters/gauges/histograms, spans, and events."""

    def __init__(
        self,
        enabled: bool = True,
        max_spans: int = 100_000,
        max_events: int = 100_000,
    ) -> None:
        self.enabled = enabled
        #: Sim-time stamping; :meth:`set_time_source` points it at a clock.
        self.time_source: Callable[[], float] = lambda: 0.0
        self.max_spans = max_spans
        self.max_events = max_events
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self.dropped_spans = 0
        self.dropped_events = 0
        self._counters: dict[tuple[str, LabelSet], Counter] = {}
        self._gauges: dict[tuple[str, LabelSet], Gauge] = {}
        self._histograms: dict[tuple[str, LabelSet], Histogram] = {}
        #: Wall-clock duration histogram per span name (survives drops).
        self._span_durations: dict[str, Histogram] = {}
        self._span_counts: dict[str, int] = {}
        #: Per span name: duration minus the spans nested directly in it.
        self._span_self_ms: dict[str, float] = {}
        self._span_stack: list[_Span] = []
        self._span_seq = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    def set_time_source(self, time_source: Callable[[], float]) -> None:
        """Point sim-time stamping at a simulation clock (``lambda: sim.now``)."""
        self.time_source = time_source

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def span(self, name: str, /, **labels):
        """A context manager timing one section of work.

        Disabled hubs return a shared no-op singleton: the call costs one
        attribute check and allocates nothing.
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, _labelset(labels) if labels else ())

    def _finish_span(self, span: _Span, duration_ms: float) -> None:
        histogram = self._span_durations.get(span.name)
        if histogram is None:
            histogram = self._span_durations[span.name] = Histogram(
                span.name, min_value=1e-4
            )
        histogram.record(duration_ms)
        self._span_counts[span.name] = self._span_counts.get(span.name, 0) + 1
        self._span_self_ms[span.name] = (
            self._span_self_ms.get(span.name, 0.0) + duration_ms - span.child_ms
        )
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        self.spans.append(
            SpanRecord(
                name=span.name,
                span_id=span.span_id,
                parent_id=None if span.parent is None else span.parent.span_id,
                sim_time=span.sim_time,
                wall_start=span.wall_start,
                duration_ms=duration_ms,
                labels=span.labels,
            )
        )

    def span_names(self) -> list[str]:
        return sorted(self._span_counts)

    def span_stats(self, name: str) -> Histogram | None:
        """Wall-clock duration histogram for one span name."""
        return self._span_durations.get(name)

    def span_summary(self) -> list[dict[str, float | str]]:
        """Per-span-name rows: count, total/self/mean/p50/p95/p99 wall ms.

        ``self_ms`` is the summed duration minus the spans nested
        directly inside, so nested names never count the same time twice.
        """
        rows: list[dict[str, float | str]] = []
        for name in self.span_names():
            histogram = self._span_durations[name]
            rows.append(
                {
                    "span": name,
                    "count": histogram.count,
                    "total_ms": histogram.total,
                    "self_ms": self._span_self_ms[name],
                    "mean_ms": histogram.mean,
                    "p50_ms": histogram.quantile(0.50),
                    "p95_ms": histogram.quantile(0.95),
                    "p99_ms": histogram.quantile(0.99),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def event(self, kind: str, /, **fields) -> None:
        """Record a point event (middleware decision, policy change, ...)."""
        if not self.enabled:
            return
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(
            EventRecord(
                kind=kind,
                sim_time=self.time_source(),
                wall_time=time.perf_counter(),
                fields=_labelset(fields) if fields else (),
            )
        )

    # ------------------------------------------------------------------
    # Labeled metrics
    # ------------------------------------------------------------------

    def counter(self, name: str, /, **labels) -> Counter:
        key = (name, _labelset(labels) if labels else ())
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(name)
        return counter

    def gauge(self, name: str, /, **labels) -> Gauge:
        key = (name, _labelset(labels) if labels else ())
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge(name)
        return gauge

    def histogram(self, name: str, /, min_value: float = 0.01, **labels) -> Histogram:
        key = (name, _labelset(labels) if labels else ())
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(name, min_value=min_value)
        return histogram

    def counters(self) -> dict[tuple[str, LabelSet], Counter]:
        return dict(self._counters)

    def gauges(self) -> dict[tuple[str, LabelSet], Gauge]:
        return dict(self._gauges)

    def histograms(self) -> dict[tuple[str, LabelSet], Histogram]:
        return dict(self._histograms)

    def snapshot(self) -> dict[str, float]:
        """Flat scalar view; labels render as ``name{k=v,...}``."""
        values: dict[str, float] = {}
        for (name, labels), counter in self._counters.items():
            values[_flat_name(name, labels)] = counter.value
        for (name, labels), gauge in self._gauges.items():
            values[_flat_name(name, labels)] = gauge.value
        return values

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------


def _flat_name(name: str, labels: LabelSet) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{rendered}}}"


#: Shared disabled hub: the default wired into every component, so hot
#: paths can unconditionally hold a ``telemetry`` attribute and pay only
#: the ``enabled`` check when observability is off.
NULL_TELEMETRY = Telemetry(enabled=False)

#: Ambient hub used when no explicit one is passed (set by the CLI's
#: ``--telemetry`` flag so figure helpers don't need threading changes).
_default_hub: Telemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry:
    """The ambient hub (``NULL_TELEMETRY`` unless one was installed)."""
    return _default_hub


def set_telemetry(hub: Telemetry | None) -> Telemetry:
    """Install ``hub`` as the ambient default; ``None`` restores the null hub.

    Returns the previously installed hub so callers can restore it.
    """
    global _default_hub
    previous = _default_hub
    _default_hub = hub if hub is not None else NULL_TELEMETRY
    return previous

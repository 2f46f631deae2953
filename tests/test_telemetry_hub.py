"""Unit tests for the telemetry hub: spans, labeled metrics, no-op path."""

import tracemalloc

from repro.telemetry.hub import (
    NULL_SPAN,
    NULL_TELEMETRY,
    Telemetry,
    get_telemetry,
    set_telemetry,
)


def test_span_records_wall_and_sim_time():
    clock = [125.0]
    telemetry = Telemetry(enabled=True)
    telemetry.set_time_source(lambda: clock[0])
    with telemetry.span("tick.flush"):
        pass
    assert len(telemetry.spans) == 1
    span = telemetry.spans[0]
    assert span.name == "tick.flush"
    assert span.sim_time == 125.0
    assert span.duration_ms >= 0.0
    assert span.parent_id is None


def test_spans_nest_hierarchically():
    telemetry = Telemetry(enabled=True)
    with telemetry.span("outer"):
        with telemetry.span("inner"):
            pass
    inner, outer = telemetry.spans  # inner finishes first
    assert inner.name == "inner" and outer.name == "outer"
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None


def test_span_labels_are_recorded():
    telemetry = Telemetry(enabled=True)
    with telemetry.span("experiment.run", policy="adaptive", bots=100):
        pass
    assert telemetry.spans[0].labels == (("bots", "100"), ("policy", "adaptive"))


def test_span_durations_feed_percentiles():
    telemetry = Telemetry(enabled=True)
    for _ in range(10):
        with telemetry.span("tick.input"):
            pass
    histogram = telemetry.span_stats("tick.input")
    assert histogram.count == 10
    rows = telemetry.span_summary()
    assert rows[0]["span"] == "tick.input"
    assert rows[0]["count"] == 10
    assert rows[0]["p99_ms"] >= 0.0


def test_span_buffer_is_bounded_but_histograms_survive():
    telemetry = Telemetry(enabled=True, max_spans=5)
    for _ in range(8):
        with telemetry.span("tick.input"):
            pass
    assert len(telemetry.spans) == 5
    assert telemetry.dropped_spans == 3
    assert telemetry.span_stats("tick.input").count == 8  # percentiles keep all


def test_disabled_span_is_shared_noop_singleton():
    telemetry = Telemetry(enabled=False)
    assert telemetry.span("a") is NULL_SPAN
    assert telemetry.span("b") is telemetry.span("c")
    with telemetry.span("a"):
        pass
    assert telemetry.spans == []
    assert telemetry.span_names() == []


def test_disabled_span_allocates_nothing():
    telemetry = Telemetry(enabled=False)
    telemetry.span("warmup")  # pre-touch any lazy state
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    for _ in range(1000):
        with telemetry.span("hot.path"):
            pass
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    total_new = sum(stat.size_diff for stat in after.compare_to(before, "lineno"))
    # Zero per-span allocation: any residue is tracemalloc's own bookkeeping,
    # far below one object per iteration.
    assert total_new < 1000


def test_disabled_event_records_nothing():
    telemetry = Telemetry(enabled=False)
    telemetry.event("trace.flush", detail="x")
    assert telemetry.events == []


def test_event_records_fields_and_times():
    clock = [50.0]
    telemetry = Telemetry(enabled=True)
    telemetry.set_time_source(lambda: clock[0])
    telemetry.event("trace.flush", dyconit="('chunk', 0, 0)", reason="numerical")
    event = telemetry.events[0]
    assert event.kind == "trace.flush"
    assert event.sim_time == 50.0
    assert dict(event.fields)["reason"] == "numerical"


def test_event_buffer_is_bounded():
    telemetry = Telemetry(enabled=True, max_events=3)
    for index in range(5):
        telemetry.event("k", i=index)
    assert len(telemetry.events) == 3
    assert telemetry.dropped_events == 2


def test_labeled_counters_are_distinct_instances():
    telemetry = Telemetry(enabled=True)
    telemetry.counter("flushes_total", reason="numerical").increment(2)
    telemetry.counter("flushes_total", reason="staleness").increment()
    telemetry.counter("flushes_total", reason="numerical").increment()
    snapshot = telemetry.snapshot()
    assert snapshot["flushes_total{reason=numerical}"] == 3
    assert snapshot["flushes_total{reason=staleness}"] == 1


def test_gauge_and_histogram_accessors():
    telemetry = Telemetry(enabled=True)
    telemetry.gauge("players").set(7)
    telemetry.histogram("latency_ms", min_value=0.1).record(4.2)
    assert telemetry.snapshot()["players"] == 7
    assert telemetry.histogram("latency_ms").count == 1


def test_ambient_hub_install_and_restore():
    hub = Telemetry(enabled=True)
    previous = set_telemetry(hub)
    try:
        assert get_telemetry() is hub
    finally:
        set_telemetry(previous)
    assert get_telemetry() is NULL_TELEMETRY


def test_null_telemetry_is_disabled():
    assert NULL_TELEMETRY.enabled is False
    assert NULL_TELEMETRY.span("x") is NULL_SPAN

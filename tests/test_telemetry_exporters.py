"""Tests for the JSONL, Prometheus, and terminal-summary exporters."""

import io
import json

import pytest

from repro.telemetry.exporters import (
    export_jsonl,
    export_prometheus,
    prometheus_text,
    render_summary,
)
from repro.telemetry.hub import Telemetry
from repro.telemetry.phases import phase_rows


def build_hub() -> Telemetry:
    telemetry = Telemetry(enabled=True)
    telemetry.set_time_source(lambda: 100.0)
    with telemetry.span("tick.input"):
        with telemetry.span("tick.serialize", session="3"):
            pass
    telemetry.counter("dyconit_commits_total").increment(5)
    telemetry.counter("dyconit_flushes_total", reason="numerical").increment(2)
    telemetry.gauge("server_players").set(40)
    telemetry.histogram("link_delivery_latency_ms", min_value=0.1).record(12.5)
    telemetry.event("trace.flush", dyconit="('chunk', 0, 0)", reason="numerical")
    return telemetry


def test_jsonl_roundtrips_every_line():
    telemetry = build_hub()
    buffer = io.StringIO()
    lines_written = export_jsonl(telemetry, buffer)
    lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert len(lines) == lines_written
    types = [line["type"] for line in lines]
    assert types[0] == "meta"
    assert types[-1] == "metrics"
    spans = [line for line in lines if line["type"] == "span"]
    events = [line for line in lines if line["type"] == "event"]
    assert {span["name"] for span in spans} == {"tick.input", "tick.serialize"}
    assert events[0]["kind"] == "trace.flush"
    # Child span carries its parent id so the hierarchy can be rebuilt.
    serialize = next(s for s in spans if s["name"] == "tick.serialize")
    tick_input = next(s for s in spans if s["name"] == "tick.input")
    assert serialize["parent"] == tick_input["id"]
    assert serialize["labels"] == {"session": "3"}


def test_jsonl_writes_to_path(tmp_path):
    telemetry = build_hub()
    path = tmp_path / "run.jsonl"
    export_jsonl(telemetry, path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "meta"
    assert json.loads(lines[-1])["type"] == "metrics"


def test_prometheus_text_format():
    text = prometheus_text(build_hub())
    assert "# TYPE repro_dyconit_commits_total counter" in text
    assert "repro_dyconit_commits_total 5" in text
    assert 'repro_dyconit_flushes_total{reason="numerical"} 2' in text
    assert "# TYPE repro_server_players gauge" in text
    assert "repro_server_players 40" in text
    assert 'repro_link_delivery_latency_ms{quantile="0.99"}' in text
    assert "repro_link_delivery_latency_ms_count 1" in text
    assert 'repro_span_duration_ms{span="tick.input",quantile="0.5"}' in text


def test_prometheus_type_line_appears_once_per_family():
    telemetry = Telemetry(enabled=True)
    telemetry.counter("flushes_total", reason="a").increment()
    telemetry.counter("flushes_total", reason="b").increment()
    text = prometheus_text(telemetry)
    assert text.count("# TYPE repro_flushes_total counter") == 1


def test_prometheus_escapes_label_values_and_names():
    telemetry = Telemetry(enabled=True)
    telemetry.counter("odd.name", detail='say "hi"\nok').increment()
    text = prometheus_text(telemetry)
    assert "repro_odd_name" in text
    assert '\\"hi\\"' in text and "\\n" in text


def test_export_prometheus_writes_file(tmp_path):
    path = tmp_path / "metrics.prom"
    export_prometheus(build_hub(), path)
    assert "repro_dyconit_commits_total" in path.read_text()


def test_render_summary_contains_all_sections():
    text = render_summary(build_hub())
    assert "Telemetry metrics" in text
    assert "Span durations" in text
    assert "Tick-phase profile" in text
    assert "dyconit_commits_total" in text


def test_render_summary_empty_hub():
    assert "no data" in render_summary(Telemetry(enabled=True))


def test_phase_profiler_orders_and_shares():
    telemetry = Telemetry(enabled=True)
    for name in ("tick.serialize", "tick.input", "tick.flush"):
        with telemetry.span(name):
            pass
    rows = phase_rows(telemetry)
    # Presentation follows tick-loop order, not alphabetical order.
    assert [row["span"] for row in rows] == ["tick.input", "tick.flush", "tick.serialize"]
    assert abs(sum(row["share_pct"] for row in rows) - 100.0) < 1e-6
    assert "Tick-phase profile" in render_summary(telemetry)


def test_phase_profiler_includes_unknown_tick_spans():
    telemetry = Telemetry(enabled=True)
    with telemetry.span("tick.custom"):
        pass
    with telemetry.span("unrelated"):
        pass
    assert [row["span"] for row in phase_rows(telemetry)] == ["tick.custom"]


def test_phase_shares_count_nested_time_once():
    """``tick.interest`` runs inside ``tick.input``: each phase's share is
    of self time, so the inner span's time is not counted twice."""
    telemetry = Telemetry(enabled=True)
    with telemetry.span("tick.input"):
        sum(range(20_000))
        with telemetry.span("tick.interest"):
            sum(range(20_000))
    inner, outer = telemetry.spans
    self_inner = inner.duration_ms
    self_outer = outer.duration_ms - inner.duration_ms
    rows = {row["span"]: row for row in phase_rows(telemetry)}
    assert rows["tick.input"]["self_ms"] == pytest.approx(self_outer)
    assert rows["tick.interest"]["self_ms"] == pytest.approx(self_inner)
    assert rows["tick.input"]["share_pct"] == pytest.approx(
        100.0 * self_outer / (self_outer + self_inner)
    )
    assert "self ms" in render_summary(telemetry)

"""Exporters: JSONL event stream, Prometheus text format, terminal summary.

Three consumers, three formats:

* ``export_jsonl`` — the full timeline (spans, events, final metric
  snapshot) as one JSON object per line, for offline analysis next to an
  experiment's JSON results;
* ``prometheus_text`` — counters/gauges/histograms (and span-duration
  summaries) in the Prometheus exposition format, so a paper-scale run
  can be scraped or diffed with standard tooling;
* ``render_summary`` — a human-readable terminal table reusing
  :func:`repro.metrics.report.render_table`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

from repro.metrics.collector import Histogram
from repro.metrics.report import render_table
from repro.telemetry.hub import LabelSet, Telemetry
from repro.telemetry.phases import phase_rows

#: Quantiles reported for every histogram/span summary export.
EXPORT_QUANTILES = (0.5, 0.95, 0.99)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------


def export_jsonl(telemetry: Telemetry, target: str | Path | IO[str]) -> int:
    """Write the hub's timeline to ``target``; returns lines written.

    Line types: ``meta`` (once, first), ``span``, ``event``, and a final
    ``metrics`` snapshot. Spans and events are each written in recording
    order; both carry sim and wall timestamps for correlation.
    """
    if hasattr(target, "write"):
        return _write_jsonl(telemetry, target)
    with open(target, "w", encoding="utf-8") as handle:
        return _write_jsonl(telemetry, handle)


def _write_jsonl(telemetry: Telemetry, handle: IO[str]) -> int:
    lines = 0

    def emit(payload: dict) -> None:
        nonlocal lines
        handle.write(json.dumps(payload, separators=(",", ":")) + "\n")
        lines += 1

    emit(
        {
            "type": "meta",
            "spans": len(telemetry.spans),
            "events": len(telemetry.events),
            "dropped_spans": telemetry.dropped_spans,
            "dropped_events": telemetry.dropped_events,
        }
    )
    for span in telemetry.spans:
        emit(
            {
                "type": "span",
                "name": span.name,
                "id": span.span_id,
                "parent": span.parent_id,
                "sim_ms": span.sim_time,
                "wall_s": span.wall_start,
                "duration_ms": span.duration_ms,
                "labels": dict(span.labels),
            }
        )
    for event in telemetry.events:
        emit(
            {
                "type": "event",
                "kind": event.kind,
                "sim_ms": event.sim_time,
                "wall_s": event.wall_time,
                "fields": dict(event.fields),
            }
        )
    emit({"type": "metrics", "values": telemetry.snapshot()})
    return lines


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------


def _sanitize(name: str) -> str:
    """Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*."""
    cleaned = "".join(
        char if char.isalnum() or char in "_:" else "_" for char in name
    )
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: LabelSet, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = tuple(labels) + extra
    if not pairs:
        return ""
    body = ",".join(
        f'{_sanitize(key)}="{_escape_label_value(value)}"' for key, value in pairs
    )
    return "{" + body + "}"


def _histogram_lines(name: str, labels: LabelSet, histogram: Histogram) -> list[str]:
    lines = []
    for quantile in EXPORT_QUANTILES:
        rendered = _render_labels(labels, (("quantile", f"{quantile:g}"),))
        lines.append(f"{name}{rendered} {histogram.quantile(quantile):g}")
    base = _render_labels(labels)
    lines.append(f"{name}_sum{base} {histogram.total:g}")
    lines.append(f"{name}_count{base} {histogram.count}")
    return lines


def prometheus_text(telemetry: Telemetry, prefix: str = "repro_") -> str:
    """The hub's metrics in Prometheus exposition format.

    Histograms (and per-span-name wall-clock durations, exported as
    ``<prefix>span_duration_ms{span="..."}``) are rendered as summaries:
    quantile samples plus ``_sum``/``_count``.
    """
    out: list[str] = []
    typed: set[str] = set()

    def declare(metric: str, kind: str) -> None:
        # One TYPE line per metric family, even across label sets.
        if metric not in typed:
            typed.add(metric)
            out.append(f"# TYPE {metric} {kind}")

    for (name, labels), counter in sorted(telemetry.counters().items()):
        metric = _sanitize(prefix + name)
        declare(metric, "counter")
        out.append(f"{metric}{_render_labels(labels)} {counter.value:g}")
    for (name, labels), gauge in sorted(telemetry.gauges().items()):
        metric = _sanitize(prefix + name)
        declare(metric, "gauge")
        out.append(f"{metric}{_render_labels(labels)} {gauge.value:g}")
    for (name, labels), histogram in sorted(telemetry.histograms().items()):
        metric = _sanitize(prefix + name)
        declare(metric, "summary")
        out.extend(_histogram_lines(metric, labels, histogram))

    span_metric = _sanitize(prefix + "span_duration_ms")
    for name in telemetry.span_names():
        histogram = telemetry.span_stats(name)
        if histogram is None:
            continue
        declare(span_metric, "summary")
        out.extend(_histogram_lines(span_metric, (("span", name),), histogram))

    return "\n".join(out) + ("\n" if out else "")


def export_prometheus(telemetry: Telemetry, path: str | Path, prefix: str = "repro_") -> None:
    """Write :func:`prometheus_text` to ``path``."""
    Path(path).write_text(prometheus_text(telemetry, prefix=prefix), encoding="utf-8")


# ----------------------------------------------------------------------
# Terminal summary
# ----------------------------------------------------------------------


def render_summary(telemetry: Telemetry) -> str:
    """Scalar metrics + span percentiles + tick-phase table, for terminals."""
    sections: list[str] = []

    snapshot = telemetry.snapshot()
    if snapshot:
        rows = [(name, value) for name, value in sorted(snapshot.items())]
        sections.append(render_table(("metric", "value"), rows, title="Telemetry metrics"))

    span_rows = telemetry.span_summary()
    if span_rows:
        body = [
            (
                row["span"],
                row["count"],
                row["total_ms"],
                row["p50_ms"],
                row["p95_ms"],
                row["p99_ms"],
            )
            for row in span_rows
        ]
        sections.append(
            render_table(
                ("span", "count", "total ms", "p50 ms", "p95 ms", "p99 ms"),
                body,
                title="Span durations (wall clock)",
            )
        )

    phases = phase_rows(telemetry)
    if phases:
        body = [
            (
                row["span"],
                row["count"],
                row["total_ms"],
                row["self_ms"],
                row["p50_ms"],
                row["p95_ms"],
                row["p99_ms"],
                row["share_pct"],
            )
            for row in phases
        ]
        sections.append(
            render_table(
                ("phase", "count", "total ms", "self ms", "p50 ms", "p95 ms", "p99 ms", "share %"),
                body,
                title="Tick-phase profile (wall clock)",
            )
        )

    if not sections:
        return "telemetry: no data recorded"
    return "\n\n".join(sections)

"""Tick-phase profiling: where does a server tick spend its time?

The engine wraps each phase of its tick loop in a span named
``tick.<phase>`` (and the policy step in ``policy.evaluate``); this
module turns those span histograms into the per-phase breakdown table
Meterstick-style performance analysis needs — count, p50/p95/p99
wall-clock duration, and each phase's share of total instrumented time.
"""

from __future__ import annotations

from repro.metrics.report import render_table
from repro.telemetry.hub import Telemetry

#: Span names the engine emits, in tick-loop order. The profiler reports
#: any ``tick.*`` span it finds; this order is used for presentation.
TICK_PHASES = (
    "tick.input",
    "tick.simulate",
    "tick.interest",
    "tick.flush",
    "tick.keepalive",
    "tick.serialize",
    "tick.egress",
    "tick.policy",
    "link.delivery",
)


class TickPhaseProfiler:
    """Read-side view over a hub's ``tick.*`` / phase span histograms."""

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry

    def phase_names(self) -> list[str]:
        """Known phases first (tick-loop order), then any extra ``tick.*``."""
        recorded = set(self.telemetry.span_names())
        names = [name for name in TICK_PHASES if name in recorded]
        names.extend(
            name
            for name in self.telemetry.span_names()
            if name.startswith("tick.") and name not in TICK_PHASES
        )
        return names

    def breakdown(self) -> list[dict[str, float | str]]:
        """One row per phase: count, total/p50/p95/p99 ms, share of total."""
        rows: list[dict[str, float | str]] = []
        names = self.phase_names()
        total_ms = 0.0
        for name in names:
            histogram = self.telemetry.span_stats(name)
            if histogram is not None:
                total_ms += histogram.total
        for name in names:
            histogram = self.telemetry.span_stats(name)
            if histogram is None:
                continue
            rows.append(
                {
                    "phase": name,
                    "count": histogram.count,
                    "total_ms": histogram.total,
                    "p50_ms": histogram.quantile(0.50),
                    "p95_ms": histogram.quantile(0.95),
                    "p99_ms": histogram.quantile(0.99),
                    "share_pct": 100.0 * histogram.total / total_ms if total_ms else 0.0,
                }
            )
        return rows

    def render(self) -> str:
        """ASCII table of the breakdown (empty-profile safe)."""
        rows = self.breakdown()
        headers = ("phase", "count", "total ms", "p50 ms", "p95 ms", "p99 ms", "share %")
        body = [
            (
                row["phase"],
                row["count"],
                row["total_ms"],
                row["p50_ms"],
                row["p95_ms"],
                row["p99_ms"],
                row["share_pct"],
            )
            for row in rows
        ]
        return render_table(headers, body, title="Tick-phase profile (wall clock)")

"""Tick-phase profiling: where does a server tick spend its time?

The engine wraps each phase of its tick loop in a span named
``tick.<phase>`` (and the policy step in ``policy.evaluate``);
:func:`phase_rows` picks those rows out of the hub's span summary for
the per-phase breakdown Meterstick-style performance analysis needs.
Phases nest (``tick.interest`` runs inside ``tick.input``), so each
phase's share is of *self* time: no millisecond is counted twice.
"""

from __future__ import annotations

from repro.telemetry.hub import Telemetry

#: Span names the engine emits, in tick-loop order. The phase table
#: reports any ``tick.*`` span it finds; this order is used for presentation.
TICK_PHASES = (
    "tick.input",
    "tick.simulate",
    "tick.interest",
    "tick.flush",
    "tick.keepalive",
    "tick.serialize",
    "tick.egress",
    "tick.policy",
    "policy.evaluate",
    "tick.audit",
)


def phase_rows(telemetry: Telemetry) -> list[dict[str, float | str]]:
    """:meth:`Telemetry.span_summary` rows of the tick phases — known
    phases in tick-loop order, then any other ``tick.*`` — each with its
    ``share_pct`` of the phases' summed self time."""
    by_name = {row["span"]: row for row in telemetry.span_summary()}
    names = [name for name in TICK_PHASES if name in by_name]
    names += [name for name in by_name if name.startswith("tick.") and name not in TICK_PHASES]
    rows = [by_name[name] for name in names]
    self_total = sum(row["self_ms"] for row in rows)
    for row in rows:
        row["share_pct"] = 100.0 * row["self_ms"] / self_total if self_total else 0.0
    return rows

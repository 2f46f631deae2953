"""Unified observability (S11): spans, tick-phase profiling, metrics, exporters.

Quick tour::

    from repro.telemetry import Telemetry, export_jsonl, prometheus_text

    telemetry = Telemetry(enabled=True)
    telemetry.set_time_source(lambda: sim.now)
    with telemetry.span("tick.flush"):
        system.tick()
    telemetry.counter("dyconit_commits_total").increment()
    export_jsonl(telemetry, "run.jsonl")
    print(prometheus_text(telemetry))

Every component defaults to the shared :data:`NULL_TELEMETRY` hub, whose
``span()`` returns a no-op singleton — instrumented hot paths cost one
attribute check when observability is off.
"""

from repro.telemetry.exporters import (
    export_jsonl,
    export_prometheus,
    prometheus_text,
    render_summary,
)
from repro.telemetry.hub import (
    NULL_SPAN,
    NULL_TELEMETRY,
    EventRecord,
    SpanRecord,
    Telemetry,
    get_telemetry,
    set_telemetry,
)
from repro.telemetry.phases import TICK_PHASES, phase_rows

__all__ = [
    "Telemetry",
    "SpanRecord",
    "EventRecord",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "TICK_PHASES",
    "phase_rows",
    "export_jsonl",
    "export_prometheus",
    "prometheus_text",
    "render_summary",
]

"""Names, units and directions of every reported metric.

``BENCHMARK.json`` lists the same entries; ``tests/test_bench_names.py``
holds the two together name for name.
"""

from __future__ import annotations

from spans import SPAN_NAMES, TOTAL_SPANS

#: (name, unit, better, bound). ``bound`` is the share of the parent's
#: median by which a metric may worsen before a change is rejected. Each is
#: about twice the widest spread (quartile distance over median, ten seeds)
#: the metric showed on any workload when the baseline was recorded; see
#: README.md, "Measured spreads".
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("tick_wall_ms_p50", "ms", "lower", 0.25),
    ("tick_wall_ms_p98", "ms", "lower", 0.25),
    ("ticks_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_tick", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("egress_kb_per_s", "kB/s", "lower", 0.25),
    ("pos_within_1_block_pct", "%", "higher", 0.15),
    ("fresh_within_250ms_pct", "%", "higher", 0.15),
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows: list[tuple[str, str, str]] = []
    for span in SPAN_NAMES:
        rows.append((f"{span}.calls_per_tick", "1/tick", "lower"))
        rows.append((f"{span}.self_ms_per_tick", "ms", "lower"))
        if span in TOTAL_SPANS:
            rows.append((f"{span}.total_ms_per_tick", "ms", "lower"))
    rows += [
        ("sim.events_per_tick", "1/tick", "lower"),
        ("world.chunks_loaded", "count", "lower"),
        ("core.commits_per_tick", "1/tick", "lower"),
        ("core.enqueues_per_tick", "1/tick", "lower"),
        ("core.bound_checks_per_tick", "1/tick", "lower"),
        ("core.flushes_per_tick", "1/tick", "lower"),
        ("core.flush_hit_ratio", "ratio", "higher"),
        ("core.merge_ratio", "ratio", "higher"),
        ("core.updates_per_flush", "count", "higher"),
        ("net.packets_per_tick", "1/tick", "lower"),
        ("net.bytes_per_tick", "B/tick", "lower"),
        ("cluster.bus.messages_per_tick", "1/tick", "lower"),
        ("cluster.bus.bytes_per_tick", "B/tick", "lower"),
        ("cluster.handoffs", "count", "lower"),
        ("cluster.worker_cpu_ms_per_tick", "ms", "lower"),
        ("cluster.parent_cpu_ms_per_tick", "ms", "lower"),
        ("bots.pos_error_p99", "blocks", "lower"),
        ("bots.staleness_p99_ms", "ms", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return tuple(rows)


#: (name, unit, better) of the per-layer metrics a traced run reports.
PER_LAYER = _per_layer()

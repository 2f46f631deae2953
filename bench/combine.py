"""Turn the trials of one invocation into the reported end-to-end metrics.

Two things stand between a stopwatch and a steady number.

*The machine.* On a shared box the same work takes up to 1.6x longer for tens
of seconds at a time: every timing is first brought to reference speed with
the factors of ``speed.py``.

*The inputs.* What a tick costs depends on where the bots happen to stand:
under ``AdaptiveBoundsPolicy`` the deadline heap's pop-check-repush churn —
and with it the median window — differs by up to 40 % between two seeds
whose commit, flush and packet counts agree within 7 %. The untraced trials
of an invocation therefore run on *different* seeds derived from ``--seed``,
and each metric is the median of the trials' own values.
"""

from __future__ import annotations

import statistics

from speed import REFERENCE_MS, window_factors

TICK_MS = 50.0

#: Egress and the consistency samples are taken over this many windows from
#: the start of the steady phase (5 simulated seconds), so that they are
#: exact per seed whatever the machine's speed. A 5 s trial of the slowest
#: workload reaches 115-145 windows here; a trial that falls short uses what
#: it has, and prints its window count.
SIMULATED_WINDOWS = 100

#: Set-up is normalised by the median of this many probes that follow it.
SETUP_PROBES = 6


def tail_index(count: int) -> int:
    """Index of the 98th percentile in an ascending list of ``count`` samples."""
    return min(int(count * 0.98), count - 1)


def spread(values: list[float]) -> float:
    """(max - min) / min, the trial-to-trial spread printed beside a value."""
    low = min(values)
    return (max(values) - low) / low if low > 0 else 0.0


def _summary(trial: dict) -> dict[str, float]:
    """One trial's own end-to-end metrics, timings at reference speed."""
    windows = len(trial["wall_ms"])
    factors = window_factors(trial["probes"], windows)
    wall = sorted(value * factor for value, factor in zip(trial["wall_ms"], factors))
    cpu = sum(value * factor for value, factor in zip(trial["cpu_ms"], factors))
    counted = min(windows, SIMULATED_WINDOWS)
    samples = [row for row in trial["samples"] if row[0] < counted]
    replicas = sum(row[1] for row in samples)
    within = sum(row[2] for row in samples)
    fresh = sum(row[3] for row in samples)
    return {
        # Set-up is taken at the speed the machine showed right after it.
        "setup_s": trial["setup_s"]
        * REFERENCE_MS
        / statistics.median(trial["probes"][:SETUP_PROBES]),
        "tick_wall_ms_p50": statistics.median(wall),
        "tick_wall_ms_p98": wall[tail_index(windows)],
        "ticks_per_s": 1000.0 * windows / sum(wall),
        "cpu_ms_per_tick": cpu / windows,
        "peak_rss_mb": max(trial["rss_setup_mb"], max(trial["rss_mb"])),
        "egress_kb_per_s": (trial["bytes"][counted - 1] - trial["bytes_start"])
        / 1000.0
        / (counted * TICK_MS / 1000.0),
        "pos_within_1_block_pct": 100.0 * within / replicas if replicas else 100.0,
        "fresh_within_250ms_pct": 100.0 * fresh / replicas if replicas else 100.0,
    }


def end_to_end(trials: list[dict]) -> tuple[dict[str, float], dict]:
    """``(metrics, info)`` from the untraced trials of one invocation.

    Each metric is the median of the trials' own values. ``info`` carries
    what is printed beside it: every trial's value and their spread, the
    window counts, the raw wall-clock medians and how slow the machine was.
    """
    summaries = [_summary(trial) for trial in trials]
    per_trial = {name: [summary[name] for summary in summaries] for name in summaries[0]}
    metrics = {name: statistics.median(values) for name, values in per_trial.items()}
    windows = [len(trial["wall_ms"]) for trial in trials]
    info = {
        "windows": windows,
        "windows_beyond_p98": [count - 1 - tail_index(count) for count in windows],
        "real_time_factor": metrics["ticks_per_s"] / (1000.0 / TICK_MS),
        # > 1: the machine was slower than the reference while the trial ran.
        "slowdown": [
            statistics.median(trial["probes"]) / REFERENCE_MS for trial in trials
        ],
        "raw_wall_clock": {
            "setup_s": statistics.median(trial["setup_s"] for trial in trials),
            "tick_wall_ms_p50": statistics.median(
                statistics.median(trial["wall_ms"]) for trial in trials
            ),
        },
        "per_trial": per_trial,
        "spread": {name: spread(values) for name, values in per_trial.items()},
    }
    return metrics, info


def determinism_failures(trials: list[dict]) -> list[str]:
    """What differs between trials that replay one simulation (same
    workload, same seed): the state digest at the end of set-up, and — over
    the windows all of them reached — the cumulative egress bytes and the
    consistency samples. The traced trial and its untraced twin are held
    against each other here: tracing must be invisible."""
    failures = []
    first = trials[0]
    windows = min(len(trial["bytes"]) for trial in trials)
    for number, trial in enumerate(trials[1:], start=2):
        if trial["state_digest"] != first["state_digest"]:
            failures.append(
                f"trial {number}: state digest {trial['state_digest'][:12]} differs "
                f"from trial 1's {first['state_digest'][:12]}"
            )
        if trial["bytes_start"] != first["bytes_start"] or (
            trial["bytes"][:windows] != first["bytes"][:windows]
        ):
            failures.append(f"trial {number}: egress bytes per window differ from trial 1")
        mine = [row for row in trial["samples"] if row[0] < windows]
        theirs = [row for row in first["samples"] if row[0] < windows]
        if mine != theirs:
            failures.append(f"trial {number}: consistency samples differ from trial 1")
    return failures

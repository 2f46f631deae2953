"""Percentile rule, window-by-window cleaning and the determinism check."""

import copy

from combine import determinism_failures, end_to_end, tail_index
from speed import PROBE_EVERY, REFERENCE_MS, SpeedProbe, window_factors


def test_tail_index_is_p98():
    assert tail_index(500) == 490  # nine samples beyond it
    assert tail_index(100) == 98
    assert tail_index(50) == 49
    assert tail_index(1) == 0
    wall = sorted(float(value) for value in range(1000))
    assert wall[tail_index(1000)] == 980.0


def _trial(wall, setup_s=1.0, slowdown=1.0):
    windows = len(wall)
    return {
        "setup_s": setup_s,
        "probes": [REFERENCE_MS * slowdown] * (-(-windows // PROBE_EVERY)),
        "state_digest": "abc",
        "wall_ms": list(wall),
        "cpu_ms": list(wall),
        "rss_setup_mb": 50.0,
        "rss_mb": [40.0 + index for index in range(windows)],
        "bytes_start": 1000,
        "bytes": [1000 + 500 * (index + 1) for index in range(windows)],
        "samples": [[index, 10, 9, 10] for index in range(0, windows, 10)],
    }


def test_each_metric_is_the_median_of_the_trials_own_values():
    slow = _trial([10.0] * 30 + [99.0] * 10, setup_s=3.0)
    typical = _trial([12.0] * 40, setup_s=1.0)
    fast = _trial([5.0] * 20, setup_s=2.0)
    metrics, info = end_to_end([slow, typical, fast])
    assert info["windows"] == [40, 40, 20]
    assert info["per_trial"]["tick_wall_ms_p50"] == [10.0, 12.0, 5.0]
    assert metrics["tick_wall_ms_p50"] == 10.0
    assert info["per_trial"]["tick_wall_ms_p98"] == [99.0, 12.0, 5.0]
    assert metrics["tick_wall_ms_p98"] == 12.0
    assert metrics["setup_s"] == 2.0
    assert metrics["ticks_per_s"] == 1000.0 / 12.0
    # Every trial sends 500 B per 50 ms window and sees 9 replicas in 10 within a block.
    assert metrics["egress_kb_per_s"] == 10.0
    assert metrics["pos_within_1_block_pct"] == 90.0
    assert metrics["fresh_within_250ms_pct"] == 100.0
    assert info["per_trial"]["peak_rss_mb"] == [79.0, 79.0, 59.0]
    assert all(value != 0 for value in metrics.values())


def test_simulated_metrics_do_not_depend_on_how_many_windows_a_trial_reached():
    brisk, slack = _trial([1.0] * 400), _trial([4.0] * 130)
    for trial in (brisk, slack):
        # Past the first 100 windows the crowd thins out: it must not matter.
        for index in range(100, len(trial["bytes"])):
            trial["bytes"][index] += 7 * index
        trial["samples"] = [
            row if row[0] < 100 else [row[0], 10, 1, 1] for row in trial["samples"]
        ]
    one, __ = end_to_end([brisk])
    other, __ = end_to_end([slack])
    for name in ("egress_kb_per_s", "pos_within_1_block_pct", "fresh_within_250ms_pct"):
        assert one[name] == other[name]
    assert one["egress_kb_per_s"] == 10.0 and one["pos_within_1_block_pct"] == 90.0


def test_timings_are_brought_to_reference_speed():
    # The same work on a machine running 1.5x slower reads the same.
    quiet = _trial([10.0] * 40, setup_s=2.0)
    slow = _trial([15.0] * 40, setup_s=3.0, slowdown=1.5)
    for trials in ([quiet], [slow], [quiet, slow, slow]):
        metrics, info = end_to_end(trials)
        assert abs(metrics["tick_wall_ms_p50"] - 10.0) < 1e-9
        assert abs(metrics["cpu_ms_per_tick"] - 10.0) < 1e-9
        assert abs(metrics["setup_s"] - 2.0) < 1e-9
    metrics, info = end_to_end([slow])
    assert info["slowdown"] == [1.5]
    assert info["raw_wall_clock"]["tick_wall_ms_p50"] == 15.0
    assert info["raw_wall_clock"]["setup_s"] == 3.0


def test_one_interrupted_probe_does_not_distort_its_windows():
    probes = [REFERENCE_MS, REFERENCE_MS, 40 * REFERENCE_MS, REFERENCE_MS]
    assert window_factors(probes, 4 * PROBE_EVERY) == [1.0] * (4 * PROBE_EVERY)
    # A lasting slowdown does come through.
    probes = [REFERENCE_MS] * 2 + [2 * REFERENCE_MS] * 3
    factors = window_factors(probes, 5 * PROBE_EVERY)
    assert factors[0] == 1.0 and factors[-1] == 0.5


def test_speed_probe_measures_something():
    probe = SpeedProbe()
    samples = [probe.sample() for __ in range(5)]
    assert all(0.05 < sample < 100.0 for sample in samples)


def test_determinism_check_names_what_differs():
    first = _trial([1.0] * 30)
    assert determinism_failures([first, copy.deepcopy(first)]) == []
    # Beyond the common prefix a difference is not comparable, so not an error.
    longer = _trial([1.0] * 40)
    assert determinism_failures([first, longer]) == []

    other_digest = dict(copy.deepcopy(first), state_digest="xyz")
    other_bytes = copy.deepcopy(first)
    other_bytes["bytes"][7] += 1
    other_samples = copy.deepcopy(first)
    other_samples["samples"][1][2] -= 1
    failures = determinism_failures([first, other_digest, other_bytes, other_samples])
    assert len(failures) == 3
    assert "trial 2: state digest" in failures[0]
    assert "trial 3: egress bytes" in failures[1]
    assert "trial 4: consistency samples" in failures[2]

"""Smoke tests for the per-figure experiment drivers (tiny scale).

The benchmarks run these at meaningful scale and assert the paper's
shapes; here we only verify each driver runs end-to-end and produces
well-formed rows and a rendered table.
"""

import pytest

from repro.experiments import figures, parallel
from repro.experiments.runner import ExperimentResult
from repro.metrics.summary import describe

TINY = dict(bots=6, duration_ms=4_000.0, warmup_ms=1_500.0, seed=9)


def test_bandwidth_by_policy_rows():
    out = figures.bandwidth_by_policy(policies=("zero", "fixed"), **TINY)
    assert {row["policy"] for row in out["rows"]} == {"zero", "fixed"}
    assert "E1" in out["table"]
    zero_row = next(row for row in out["rows"] if row["policy"] == "zero")
    assert zero_row["reduction %"] == pytest.approx(0.0)


def test_capacity_sweep_shapes():
    out = figures.capacity_sweep(
        policies=("vanilla",), bot_counts=(4, 8),
        duration_ms=4_000.0, warmup_ms=2_000.0, seed=9,
    )
    assert out["capacities"]["vanilla"] == 8.0  # tiny fleet never saturates
    assert len(out["curves"]["vanilla"]) == 2


def test_capacity_ladder_is_the_same_at_any_jobs(tmp_path):
    """A ladder crossed mid-way gives the same rows, curves and capacities
    serially and in batches of two; the batched ladder stops after the
    batch holding the crossing and never simulates the points past it."""
    counts = (4, 8, 12, 16, 20)
    ladder = dict(
        policies=("vanilla",), bot_counts=counts,
        duration_ms=4_000.0, warmup_ms=2_000.0, seed=9,
    )
    probe = figures.capacity_sweep(tick_budget_ms=float("inf"), **ladder)
    p95s = [p95 for _, p95 in probe["curves"]["vanilla"]]
    assert p95s[0] < p95s[1] < p95s[2]
    budget = (p95s[1] + p95s[2]) / 2.0

    serial = figures.capacity_sweep(
        tick_budget_ms=budget, jobs=1, cache_dir=tmp_path / "serial", **ladder
    )
    batched = figures.capacity_sweep(
        tick_budget_ms=budget, jobs=2, cache_dir=tmp_path / "batched", **ladder
    )
    for key in ("rows", "curves", "capacities"):
        assert batched[key] == serial[key]
    assert [bots for bots, _ in serial["curves"]["vanilla"]] == [4, 8, 12]
    assert 8.0 < serial["capacities"]["vanilla"] < 12.0
    # Serial runs up to the crossing; batches of two also run 16 (the
    # crossing's batch-mate) but not 20.
    assert len(list((tmp_path / "serial").glob("*.json"))) == 3
    assert len(list((tmp_path / "batched").glob("*.json"))) == 4


def test_capacity_rounds_span_policies(monkeypatch):
    """Each round holds the next ``jobs`` queued cells across policies, a
    crossed policy drops its queued cells, and the curves equal the
    serial ladder's."""
    rounds = []

    def fake_run_cells(cells, **_):
        rounds.append([cell.name for cell in cells])
        # p95 = bots for vanilla and 5 x bots for adaptive.
        scale = {"vanilla": 1.0, "adaptive": 5.0}
        return [
            ExperimentResult(
                config=cell,
                tick_duration=describe([scale[cell.policy] * cell.bots]),
            )
            for cell in cells
        ]

    monkeypatch.setattr(figures, "run_cells", fake_run_cells)
    ladder = dict(
        policies=("vanilla", "adaptive"),
        bot_counts=(10, 20, 30, 40),
        tick_budget_ms=120.0,
    )
    serial = figures.capacity_sweep(jobs=1, **ladder)
    assert [len(names) for names in rounds] == [1] * 7
    rounds.clear()
    batched = figures.capacity_sweep(jobs=3, **ladder)
    assert rounds == [
        ["e2-vanilla-10", "e2-vanilla-20", "e2-vanilla-30"],
        ["e2-vanilla-40", "e2-adaptive-10", "e2-adaptive-20"],
        ["e2-adaptive-30", "e2-adaptive-40"],
    ]
    assert batched["curves"] == serial["curves"]
    assert serial["curves"]["adaptive"] == [(10, 50.0), (20, 100.0), (30, 150.0)]
    assert batched["capacities"] == serial["capacities"]


def test_failing_serial_cell_runs_once_and_raises_its_own_error(monkeypatch):
    """A cell that raises in-process is not retried: the driver raises the
    cell's own exception after one attempt."""

    class CellFailure(Exception):
        pass

    attempts = []

    def failing_run(config, **_):
        attempts.append(config.name)
        raise CellFailure(config.name)

    monkeypatch.setattr(parallel, "run_experiment", failing_run)
    with pytest.raises(CellFailure, match="e3-zero"):
        figures.inconsistency_by_policy(policies=("zero",), jobs=1, **TINY)
    assert attempts == ["e3-zero"]


def test_capacity_interpolation():
    curve = [(50, 20.0), (100, 40.0), (150, 80.0)]
    assert figures._capacity_at(curve, budget_ms=50.0) == pytest.approx(112.5)


def test_capacity_all_over_budget():
    assert figures._capacity_at([(50, 90.0)], budget_ms=50.0) == 0.0


def test_capacity_all_under_budget():
    assert figures._capacity_at([(50, 10.0), (100, 20.0)], budget_ms=50.0) == 100.0


def test_inconsistency_rows():
    out = figures.inconsistency_by_policy(policies=("zero", "infinite"), **TINY)
    rows = {row["policy"]: row for row in out["rows"]}
    assert rows["infinite"]["err mean"] >= rows["zero"]["err mean"]


def test_latency_rows():
    out = figures.latency_by_policy(policies=("vanilla", "zero"), **TINY)
    rows = {row["policy"]: row for row in out["rows"]}
    assert rows["vanilla"]["net p50 ms"] > 0
    assert rows["vanilla"]["queue p99 ms"] == 0.0


def test_dynamics_timeline_runs():
    out = figures.dynamics_timeline(
        base_bots=4, burst_bots=8, duration_ms=24_000.0,
        burst_at_ms=8_000.0, burst_end_ms=16_000.0, seed=9,
    )
    assert "E6" in out["table"]
    assert out["result"].player_timeline[-1][1] == 4  # burst left again


def test_policy_summary_rows():
    out = figures.policy_summary_table(policies=("zero", "fixed"), **TINY)
    assert len(out["rows"]) == 2


def test_ablation_merging_rows():
    out = figures.ablation_merging(**TINY)
    assert [row["merging"] for row in out["rows"]] == ["on", "off"]


def test_ablation_granularity_rows():
    out = figures.ablation_granularity(partitioners=("chunk", "global"), **TINY)
    assert [row["granularity"] for row in out["rows"]] == ["chunk", "global"]


def test_ablation_policy_period_rows():
    out = figures.ablation_policy_period(periods_ms=(500.0, 2000.0), **TINY)
    assert [row["period ms"] for row in out["rows"]] == [500.0, 2000.0]


def test_shard_scaling_rows():
    out = figures.shard_scaling(shard_counts=(1, 2), **TINY)
    assert [row["shards"] for row in out["rows"]] == [1, 2]
    assert "E11" in out["table"]
    single, dual = out["rows"]
    # A 1-shard cluster is the legacy server: nothing crosses a bus.
    assert single["intershard kB/s"] == 0.0
    assert single["handoffs"] == 0
    assert dual["intershard kB/s"] > 0.0
    assert dual["worst shard p95 ms"] >= 0.0
    # Meterstick variability columns come from the steady tick window.
    for row in out["rows"]:
        assert row["tick CoV"] >= 0.0
        assert row["p99/p50"] >= 1.0
    # S18: multi-shard rows carry the serial-vs-parallel comparison; the
    # 1-shard row has no parallel sibling (nothing to parallelise).
    assert single["par identical"] == ""
    assert dual["par identical"] == "yes"
    assert dual["par CoV"] >= 0.0
    assert dual["par p99/p50"] >= 1.0
    par = out["parallel_results"][2]
    serial = out["results"][2]
    assert par.bytes_total == serial.bytes_total
    assert par.packets_total == serial.packets_total
    assert par.handoffs == serial.handoffs


def test_shard_scaling_can_skip_the_parallel_comparison():
    out = figures.shard_scaling(
        shard_counts=(2,), compare_parallel=False, **TINY
    )
    assert out["parallel_results"] == {}
    assert "par identical" not in out["table"]


def test_shard_scaling_uses_the_sweep_cache(tmp_path):
    cold = figures.shard_scaling(shard_counts=(2,), cache_dir=tmp_path, **TINY)
    warm = figures.shard_scaling(shard_counts=(2,), cache_dir=tmp_path, **TINY)
    assert warm["rows"] == cold["rows"]

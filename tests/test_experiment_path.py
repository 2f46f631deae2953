"""One experiment path: every run is built from its ``ServerConfig`` and
read by one collector.

* a sharded run's ``dyconit_stats`` has a single-server run's keys, order
  and value types, and its counters are the shards' field-wise sums;
* the per-run switches (``merging_enabled``, ``record_latencies``) reach
  the shards — worker processes included — through the config alone.
"""

from dataclasses import fields

from repro.core.stats import DyconitStats
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.store import result_to_dict


def small(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        policy="adaptive",
        bots=6,
        movement="gathering",
        duration_ms=3_000.0,
        warmup_ms=1_000.0,
        seed=13,
    )
    return base.with_(**overrides)


def test_sharded_stats_have_single_server_keys_order_and_types():
    captured = []
    sharded = run_experiment(
        small(shards=2), hooks=[(0.0, lambda server, workload: captured.append(server))]
    )
    single = run_experiment(small())

    stats = sharded.dyconit_stats
    assert list(stats) == list(single.dyconit_stats)
    assert [type(value) for value in stats.values()] == [
        type(value) for value in single.dyconit_stats.values()
    ]
    assert type(stats["commits"]) is int

    (cluster,) = captured
    shard_stats = [shard.dyconits.stats for shard in cluster.shards]
    summed = DyconitStats(
        **{
            spec.name: sum(getattr(each, spec.name) for each in shard_stats)
            for spec in fields(DyconitStats)
        }
    )
    assert stats == summed.as_dict()
    assert stats["commits"] > 0


def test_switches_reach_parallel_workers_through_the_config():
    # Long enough that each shard sends more packets than the 4096-sample
    # latency reservoir keeps: only exact recording counts every one.
    config = small(
        shards=2, bots=12, duration_ms=8_000.0, merging_enabled=False, record_latencies=True
    )
    serial = result_to_dict(run_experiment(config.with_(name="serial")))
    parallel = result_to_dict(
        run_experiment(config.with_(name="parallel", parallel_ticks=True))
    )
    for payload in (serial, parallel):
        assert payload["dyconit_stats"]["merge_ratio"] == 0
        assert payload["packet_latency"]["count"] == payload["packets_total"] > 2 * 4096
        del payload["config"]["name"], payload["config"]["parallel_ticks"]
    assert parallel == serial

"""Round-trip tests for experiment result persistence."""

import json
from dataclasses import fields

from repro.core.bounds import Bounds
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.store import result_from_dict, result_to_dict


def small_result():
    config = ExperimentConfig(
        policy="fixed",
        policy_kwargs={"bounds": Bounds(5.0, 400.0)},
        bots=4,
        duration_ms=3_000.0,
        warmup_ms=1_000.0,
        seed=13,
    )
    return run_experiment(config)


def test_dict_roundtrip_preserves_metrics():
    result = small_result()
    rebuilt = result_from_dict(result_to_dict(result))
    assert rebuilt.bytes_total == result.bytes_total
    assert rebuilt.packets_total == result.packets_total
    assert rebuilt.tick_duration == result.tick_duration
    assert rebuilt.dyconit_stats == result.dyconit_stats
    assert rebuilt.bandwidth_timeline == result.bandwidth_timeline


def test_dict_roundtrip_preserves_config():
    result = small_result()
    rebuilt = result_from_dict(result_to_dict(result))
    assert rebuilt.config.policy == "fixed"
    # Policy kwargs come back as plain data: the bounds as their fields.
    assert Bounds(**rebuilt.config.policy_kwargs["bounds"]) == Bounds(5.0, 400.0)
    assert rebuilt.config.bots == 4
    assert rebuilt.config.seed == 13


def test_rebuilt_result_renders_row():
    result = small_result()
    rebuilt = result_from_dict(result_to_dict(result))
    assert rebuilt.as_row()["policy"] == "fixed"


def cluster_result():
    config = ExperimentConfig(
        policy="adaptive",
        bots=6,
        movement="gathering",
        duration_ms=4_000.0,
        warmup_ms=1_000.0,
        seed=13,
        shards=2,
    )
    return run_experiment(config)


def test_cluster_roundtrip_preserves_shard_counters():
    result = cluster_result()
    rebuilt = result_from_dict(result_to_dict(result))
    assert rebuilt.shards == 2
    assert rebuilt.handoffs == result.handoffs
    assert rebuilt.handoffs_cancelled == result.handoffs_cancelled
    assert rebuilt.entity_transfers == result.entity_transfers
    assert rebuilt.intershard_bytes == result.intershard_bytes > 0
    assert rebuilt.intershard_messages == result.intershard_messages
    assert rebuilt.intershard_bytes_per_second == result.intershard_bytes_per_second
    assert rebuilt.intershard_messages_by_kind == result.intershard_messages_by_kind
    assert rebuilt.shard_tick_p95_ms == result.shard_tick_p95_ms
    assert len(rebuilt.shard_tick_p95_ms) == 2
    assert rebuilt.shard_players == result.shard_players
    assert sum(rebuilt.shard_players) == 6


def test_pre_sharding_payloads_load_with_single_server_defaults():
    result = small_result()
    payload = result_to_dict(result)
    # Simulate an archived pre-S16 store: none of the cluster keys exist.
    for key in (
        "shards", "handoffs", "handoffs_cancelled", "entity_transfers",
        "intershard_bytes", "intershard_messages",
        "intershard_bytes_per_second", "intershard_messages_by_kind",
        "shard_tick_p95_ms", "shard_players",
    ):
        payload.pop(key, None)
    rebuilt = result_from_dict(payload)
    assert rebuilt.shards == 1
    assert rebuilt.handoffs == 0
    assert rebuilt.intershard_bytes == 0
    assert rebuilt.shard_tick_p95_ms == []


def test_store_keys_follow_the_result_fields():
    result = small_result()
    assert list(result_to_dict(result)) == [spec.name for spec in fields(ExperimentResult)]


def test_store_round_trips_single_server_and_sharded_results():
    for result in (small_result(), cluster_result()):
        payload = result_to_dict(result)
        assert result_to_dict(result_from_dict(payload)) == payload
        stored = json.dumps(payload)
        assert json.dumps(result_to_dict(result_from_dict(json.loads(stored)))) == stored


def test_missing_keys_keep_the_dataclass_defaults():
    payload = result_to_dict(small_result())
    for key in ("packets_dropped", "reconnects", "tick_timeline", "shards"):
        del payload[key]
    rebuilt = result_from_dict(payload)
    defaults = ExperimentResult(config=rebuilt.config)
    for key in ("packets_dropped", "reconnects", "tick_timeline", "shards"):
        assert getattr(rebuilt, key) == getattr(defaults, key)

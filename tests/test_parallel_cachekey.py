"""Property tests for the sweep cache key (``config_digest``).

The cache key must be a pure function of the experiment's *content*:
invariant under dict key order, ``with_()`` round-trips, and int/float
representation of integral numbers — and it must *change* whenever any
semantically meaningful field changes, or the cache would serve the
wrong result.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bots.workload import ChurnSpec
from repro.core.bounds import Bounds
from repro.experiments.configs import (
    POLICY_NAMES,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
)
from repro.experiments.parallel import config_digest, normalize_config
from repro.faults.plan import DegradedWindow, FaultPlan

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def fault_plans(draw):
    windows = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
                st.floats(min_value=1.0, max_value=5_000.0, allow_nan=False),
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            ),
            max_size=2,
        )
    )
    return FaultPlan(
        loss_rate=draw(st.floats(min_value=0.0, max_value=0.5, allow_nan=False)),
        burst_loss_rate=draw(probabilities),
        p_good_to_bad=draw(st.floats(min_value=0.0, max_value=0.9, allow_nan=False)),
        p_bad_to_good=draw(st.floats(min_value=0.1, max_value=1.0, allow_nan=False)),
        spike_probability=draw(probabilities),
        spike_ms=draw(st.floats(min_value=0.0, max_value=500.0, allow_nan=False)),
        degraded_windows=tuple(
            DegradedWindow(start, start + length, factor)
            for start, length, factor in windows
        ),
    )


@st.composite
def churn_specs(draw):
    return ChurnSpec(
        interval_ms=draw(st.floats(min_value=100.0, max_value=5_000.0, allow_nan=False)),
        rejoin_delay_ms=draw(st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False)),
        start_after_ms=draw(st.floats(min_value=0.0, max_value=2_000.0, allow_nan=False)),
    )


@st.composite
def experiment_configs(draw):
    duration = draw(st.floats(min_value=2_000.0, max_value=60_000.0, allow_nan=False))
    return ExperimentConfig(
        name=draw(st.text(min_size=1, max_size=12)),
        policy=draw(st.sampled_from(POLICY_NAMES)),
        partitioner=draw(st.sampled_from(("chunk", "global", "region:4"))),
        merging_enabled=draw(st.booleans()),
        bots=draw(st.integers(min_value=1, max_value=200)),
        movement=draw(st.sampled_from(("hotspot", "random"))),
        duration_ms=duration,
        warmup_ms=draw(st.floats(min_value=0.0, max_value=duration / 2, allow_nan=False)),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        view_distance=draw(st.integers(min_value=1, max_value=10)),
        faults=draw(st.none() | fault_plans()),
        churn=draw(st.none() | churn_specs()),
    )


def _permuted(data: dict, seed: int) -> dict:
    """The same dict with a different (deterministic) key insertion order."""
    keys = sorted(data, key=lambda k: hash((seed, k)))
    return {
        key: _permuted(data[key], seed + 1) if isinstance(data[key], dict)
        else data[key]
        for key in keys
    }


@settings(max_examples=150, deadline=None)
@given(experiment_configs(), st.integers(min_value=0, max_value=1_000))
def test_digest_invariant_under_key_order(config, seed):
    data = config_to_dict(config)
    assert config_digest(_permuted(data, seed)) == config_digest(config)


@settings(max_examples=150, deadline=None)
@given(experiment_configs())
def test_digest_invariant_under_roundtrips(config):
    digest = config_digest(config)
    # with_() with no overrides is the identity.
    assert config_digest(config.with_()) == digest
    # with_() re-stating an existing value is the identity.
    assert config_digest(config.with_(seed=config.seed, bots=config.bots)) == digest
    # dict round-trip (what crosses the worker process boundary).
    assert config_digest(config_from_dict(config_to_dict(config))) == digest


@settings(max_examples=150, deadline=None)
@given(experiment_configs())
def test_digest_changes_when_content_changes(config):
    digest = config_digest(config)
    assert config_digest(config.with_(seed=config.seed + 1)) != digest
    assert config_digest(config.with_(bots=config.bots + 1)) != digest


def test_digest_changes_with_shard_topology():
    base = ExperimentConfig(policy="adaptive")
    digests = {
        config_digest(base),
        config_digest(base.with_(shards=2)),
        config_digest(base.with_(shards=4)),
        config_digest(base.with_(shards=2, strip_width=2)),
    }
    assert len(digests) == 4


@given(st.integers(min_value=-(2**31), max_value=2**31))
def test_integral_numbers_hash_like_their_floats(value):
    base = config_to_dict(ExperimentConfig())
    as_int, as_float = dict(base), dict(base)
    as_int["seed"], as_float["seed"] = value, float(value)
    assert config_digest(as_int) == config_digest(as_float)


def test_normalized_form_is_json_stable():
    """Normalization is idempotent and survives a JSON round-trip."""
    import json

    normalized = normalize_config(ExperimentConfig(faults=FaultPlan(loss_rate=0.05)))
    assert json.loads(json.dumps(normalized)) == normalized


def test_ten_thousand_distinct_configs_never_collide():
    """Deterministic grid: >10k distinct cells, all digests unique.

    Axes cover everything the sweep drivers actually vary: seed, policy,
    bot count, bounds, fault plan, churn, merging. Any collision would
    silently serve one cell's result for another.
    """
    seeds = range(60)
    policies = POLICY_NAMES  # 8
    bots = (10, 50)
    durations = (30_000.0, 20_000.0)
    variants = (
        {},
        {"policy_kwargs": {"bounds": Bounds(5.0, 400.0)}},
        {"faults": FaultPlan(loss_rate=0.02)},
        {"faults": FaultPlan(loss_rate=0.02, burst_loss_rate=0.5, p_good_to_bad=0.1)},
        {"churn": ChurnSpec(interval_ms=500.0)},
        {"merging_enabled": False},
    )
    digests = set()
    count = 0
    # 60 seeds * 8 policies * 2 fleets * 2 durations * 6 variants = 11520.
    for seed, policy, bot_count, duration, variant in itertools.product(
        seeds, policies, bots, durations, variants
    ):
        config = ExperimentConfig(
            seed=seed, policy=policy, bots=bot_count, duration_ms=duration, **variant
        )
        digests.add(config_digest(config))
        count += 1
    assert count > 10_000
    assert len(digests) == count

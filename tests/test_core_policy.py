"""Unit tests for the policy base class and load signals."""

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.policy import LoadSignals, Policy

from tests.conftest import RecordingSubscriber


def make_signals(**overrides):
    defaults = dict(
        now=0.0,
        player_count=10,
        last_tick_duration_ms=25.0,
        smoothed_tick_duration_ms=25.0,
        tick_budget_ms=50.0,
        outgoing_bytes_per_second=1000.0,
    )
    defaults.update(overrides)
    return LoadSignals(**defaults)


def test_tick_utilization():
    assert make_signals().tick_utilization == 0.5
    assert make_signals(smoothed_tick_duration_ms=100.0).tick_utilization == 2.0
    assert make_signals(tick_budget_ms=0.0).tick_utilization == 0.0


def test_default_policy_fails_safe_to_zero_bounds():
    """A policy that forgets to override bounds_columns behaves like
    vanilla — it can never silently introduce inconsistency."""
    system = DyconitSystem(Policy(), time_source=lambda: 0.0)
    rec = RecordingSubscriber()
    state = system.subscribe("unit", rec.subscriber)
    assert state.bounds == Bounds.ZERO


def test_default_hooks_are_noops():
    policy = Policy()
    system = DyconitSystem(policy, time_source=lambda: 0.0)
    rec = RecordingSubscriber()
    system.register_subscriber(rec.subscriber)
    # None of these should raise.
    policy.evaluate(system, make_signals())
    policy.on_subscriber_moved(system, rec.subscriber)


def test_policy_name():
    class MyPolicy(Policy):
        pass

    assert MyPolicy().name == "MyPolicy"
    assert "MyPolicy" in repr(MyPolicy())


def test_on_attach_called_by_system():
    class Attaching(Policy):
        def __init__(self):
            self.attached_to = None

        def on_attach(self, system):
            self.attached_to = system

    policy = Attaching()
    system = DyconitSystem(policy, time_source=lambda: 0.0)
    assert policy.attached_to is system

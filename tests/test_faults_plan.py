"""Unit tests for the declarative fault plans."""

import pytest

from repro.faults import DegradedWindow, FaultPlan
from repro.faults.plan import NULL_FAULT_PLAN


def test_default_plan_is_null():
    plan = FaultPlan()
    assert not plan.has_burst_model
    assert not plan.has_spikes
    assert NULL_FAULT_PLAN == plan


def test_inactive_components_do_not_arm_models():
    # Burst loss with no transition into BAD never fires.
    assert not FaultPlan(burst_loss_rate=0.5).has_burst_model
    # Spike probability with zero duration is a no-op.
    assert not FaultPlan(spike_probability=0.5).has_spikes


@pytest.mark.parametrize(
    "kwargs",
    [
        {"loss_rate": -0.1},
        {"loss_rate": 1.5},
        {"burst_loss_rate": 2.0},
        {"p_good_to_bad": -1.0},
        {"p_bad_to_good": 1.01},
        {"spike_probability": 7.0},
        {"spike_ms": -5.0},
    ],
)
def test_rate_validation(kwargs):
    with pytest.raises(ValueError):
        FaultPlan(**kwargs)


def test_absorbing_total_loss_rejected():
    with pytest.raises(ValueError):
        FaultPlan(p_good_to_bad=0.5, p_bad_to_good=0.0, burst_loss_rate=1.0)


def test_degraded_window_validation():
    with pytest.raises(ValueError):
        DegradedWindow(100.0, 100.0, 0.5)  # empty window
    with pytest.raises(ValueError):
        DegradedWindow(0.0, 100.0, 0.0)  # zero bandwidth
    with pytest.raises(ValueError):
        DegradedWindow(0.0, 100.0, 1.5)  # "degraded" above full rate


def test_degraded_window_contains_is_half_open():
    window = DegradedWindow(100.0, 200.0, 0.5)
    assert not window.contains(99.9)
    assert window.contains(100.0)
    assert window.contains(199.9)
    assert not window.contains(200.0)


def test_plan_is_immutable():
    plan = FaultPlan(loss_rate=0.1)
    with pytest.raises(AttributeError):
        plan.loss_rate = 0.2

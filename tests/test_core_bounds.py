"""Unit tests for inconsistency bounds."""

import math

import pytest

from repro.core.bounds import Bounds


def test_zero_constant():
    assert Bounds.ZERO.is_zero
    assert not Bounds.ZERO.is_infinite


def test_infinite_constant():
    assert Bounds.INFINITE.is_infinite
    assert not Bounds.INFINITE.is_zero


def test_rejects_negative_components():
    with pytest.raises(ValueError):
        Bounds(-1.0, 0.0)
    with pytest.raises(ValueError):
        Bounds(0.0, -1.0)


@pytest.mark.parametrize("bounds", [(math.nan, 0.0), (0.0, math.nan), (0.0, 0.0, math.nan)])
def test_rejects_nan_components(bounds):
    # A NaN bound compares false against everything, so it would never trip.
    with pytest.raises(ValueError):
        Bounds(*bounds)


class TestExceededBy:
    def test_zero_bound_trips_on_any_error(self):
        assert Bounds.ZERO.exceeded_by(accumulated_error=0.001, oldest_age_ms=0.0)

    def test_zero_staleness_trips_at_age_zero(self):
        # Zero staleness means "no queued update may wait at all": with a
        # pending update even age 0 violates the bound. (The empty-queue
        # case is guarded in SubscriptionState.exceeds_bounds, which is
        # exercised in test_core_dyconit.)
        assert Bounds.ZERO.exceeded_by(accumulated_error=0.0, oldest_age_ms=0.0)

    def test_numerical_dimension_is_strict(self):
        bounds = Bounds(10.0, math.inf)
        assert not bounds.exceeded_by(10.0, 0.0)
        assert bounds.exceeded_by(10.001, 0.0)

    def test_staleness_dimension(self):
        bounds = Bounds(math.inf, 500.0)
        assert not bounds.exceeded_by(1e9, 499.0)
        assert bounds.exceeded_by(0.0, 500.0)

    def test_infinite_never_trips(self):
        assert not Bounds.INFINITE.exceeded_by(1e18, 1e18)

    def test_either_dimension_suffices(self):
        bounds = Bounds(10.0, 500.0)
        assert bounds.exceeded_by(11.0, 0.0)
        assert bounds.exceeded_by(0.0, 501.0)
        assert not bounds.exceeded_by(5.0, 100.0)


class TestScaling:
    def test_scaled(self):
        assert Bounds(2.0, 100.0).scaled(3.0) == Bounds(6.0, 300.0)

    def test_scaled_to_zero(self):
        assert Bounds(2.0, 100.0).scaled(0.0).is_zero

    def test_scaling_infinite_stays_infinite(self):
        assert Bounds.INFINITE.scaled(0.5).is_infinite

    def test_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            Bounds(1.0, 1.0).scaled(-1.0)


def test_bounds_are_immutable_and_hashable():
    bounds = Bounds(1.0, 2.0)
    with pytest.raises(Exception):
        bounds.numerical = 5.0
    assert hash(Bounds(1.0, 2.0)) == hash(bounds)

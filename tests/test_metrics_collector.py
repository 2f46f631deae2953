"""Unit tests for metric primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries


def histogram_bits(hist: Histogram) -> str:
    """Everything a histogram holds, with floats as ``repr`` (so ``-0.0``
    and NaN compare by their bits, not by ``==``)."""
    return repr(
        (
            hist.count,
            hist.total,
            hist.max_value,
            hist.min_seen,
            hist._zero_count,
            list(hist._buckets.items()),
        )
    )


class TestCounter:
    def test_increment(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(2.5)
        assert counter.value == 3.5

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)


class TestGauge:
    def test_set(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.set(7.0)
        assert gauge.value == 7.0


class TestTimeSeries:
    def test_append_and_len(self):
        series = TimeSeries("s")
        series.record(0.0, 1.0)
        series.record(10.0, 2.0)
        assert len(series) == 2

    def test_rejects_out_of_order(self):
        series = TimeSeries("s")
        series.record(10.0, 1.0)
        with pytest.raises(ValueError):
            series.record(5.0, 2.0)

    def test_window(self):
        series = TimeSeries("s")
        for t in range(5):
            series.record(float(t), float(t * 10))
        assert series.window(1.0, 4.0) == [10.0, 20.0, 30.0]


class TestHistogram:
    def test_mean_and_count(self):
        hist = Histogram("h")
        for value in (1.0, 2.0, 3.0):
            hist.record(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(2.0)

    def test_quantiles_have_bounded_relative_error(self):
        hist = Histogram("h", precision=0.02)
        values = [float(v) for v in range(1, 1001)]
        for value in values:
            hist.record(value)
        for q, expected in ((0.5, 500.0), (0.95, 950.0), (0.99, 990.0)):
            assert hist.quantile(q) == pytest.approx(expected, rel=0.05)

    def test_zero_bucket(self):
        hist = Histogram("h", min_value=1.0)
        for _ in range(99):
            hist.record(0.0)
        hist.record(100.0)
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(1.0) >= 95.0

    def test_empty_quantile_is_zero(self):
        assert Histogram("h").quantile(0.99) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram("h").record(-0.1)

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            Histogram("h", min_value=0.0)
        with pytest.raises(ValueError):
            Histogram("h", precision=1.5)

    def test_merge(self):
        a = Histogram("a")
        b = Histogram("b")
        for value in (1.0, 2.0):
            a.record(value)
        for value in (3.0, 4.0):
            b.record(value)
        a.merge(b)
        assert a.count == 4
        assert a.mean == pytest.approx(2.5)
        assert a.max_value == 4.0

    def test_merge_rejects_mismatched_buckets(self):
        a = Histogram("a", min_value=0.01)
        b = Histogram("b", min_value=1.0)
        with pytest.raises(ValueError):
            a.merge(b)

    @settings(max_examples=300, deadline=None)
    @given(
        prefix=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=5),
        values=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
        min_value=st.sampled_from([0.01, 0.1, 1.0]),
    )
    def test_record_many_is_record_in_a_loop(self, prefix, values, min_value):
        """Bit for bit, including a value that raises: the ones before it
        are recorded, the same exception propagates."""
        looped = Histogram("h", min_value=min_value)
        batched = Histogram("h", min_value=min_value)
        for value in prefix:
            looped.record(value)
            batched.record(value)

        def outcome(record_all):
            try:
                record_all()
            except (ValueError, OverflowError) as error:
                return type(error), str(error)
            return None

        def loop():
            for value in values:
                looped.record(value)

        expected = outcome(loop)
        assert outcome(lambda: batched.record_many(iter(values))) == expected
        assert histogram_bits(batched) == histogram_bits(looped)

    def test_record_many_negative_raises_after_the_values_before_it(self):
        hist = Histogram("h", min_value=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            hist.record_many([0.5, 3.0, -1.0, 7.0])
        assert (hist.count, hist.total, hist.max_value, hist.min_seen) == (2, 3.5, 3.0, 0.5)
        assert hist._zero_count == 1


class TestRegistry:
    def test_same_name_same_instance(self):
        registry = MetricsRegistry()
        assert registry.series("y") is registry.series("y")
        assert registry.histogram("z") is registry.histogram("z")

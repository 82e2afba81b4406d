"""Unit tests for the service metrics registry and percentile math."""

import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.service.metrics import (
    LatencySummary,
    MetricsRegistry,
    percentile,
)


class TestPercentile:
    def test_nearest_rank_on_1_to_100(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_single_sample(self):
        for q in (0, 50, 99, 100):
            assert percentile([7.5], q) == 7.5

    def test_p0_is_minimum(self):
        assert percentile([4.0, 2.0, 9.0], 0) == 2.0

    def test_returns_actual_sample(self):
        samples = [0.1, 0.2, 10.0]
        assert percentile(samples, 99) in samples

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rank_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)


class TestLatencySummary:
    def test_fields(self):
        s = LatencySummary.from_samples([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.p50 == 2.0
        assert s.p99 == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencySummary.from_samples([])


class TestMetricsRegistry:
    def test_counters(self):
        m = MetricsRegistry()
        assert m.counter("x") == 0
        m.increment("x")
        m.increment("x", 4)
        assert m.counter("x") == 5

    def test_observe_and_summary(self):
        m = MetricsRegistry()
        for v in (3.0, 1.0, 2.0):
            m.observe("latency_seconds", v)
        summary = m.summary("latency_seconds")
        assert summary is not None
        assert summary.count == 3
        assert summary.p50 == 2.0

    def test_summary_missing_series_is_none(self):
        assert MetricsRegistry().summary("nope") is None

    def test_samples_returns_copy(self):
        m = MetricsRegistry()
        m.observe("s", 1.0)
        m.samples("s").append(99.0)
        assert m.samples("s") == [1.0]

    def test_snapshot(self):
        m = MetricsRegistry()
        m.increment("queries", 2)
        m.observe("latency_seconds", 0.5)
        snap = m.snapshot()
        assert snap["counters"] == {"queries": 2}
        assert snap["series"]["latency_seconds"].count == 1

    def test_thread_safety_under_contention(self):
        m = MetricsRegistry()

        def hammer():
            for _ in range(500):
                m.increment("n")
                m.observe("s", 1.0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("n") == 2000
        assert m.summary("s").count == 2000


class TestReservoirSampling:
    def test_exact_below_capacity(self):
        registry = MetricsRegistry(max_samples_per_series=10)
        for v in range(7):
            registry.observe("x", float(v))
        assert sorted(registry.samples("x")) == [float(v) for v in range(7)]
        assert registry.sample_count("x") == 7

    def test_capped_above_capacity(self):
        registry = MetricsRegistry(max_samples_per_series=64)
        for v in range(10_000):
            registry.observe("x", float(v))
        assert len(registry.samples("x")) == 64
        assert registry.sample_count("x") == 10_000

    def test_aggregates_stay_exact_past_cap(self):
        registry = MetricsRegistry(max_samples_per_series=16)
        values = [float(v) for v in range(1, 1001)]
        for v in values:
            registry.observe("x", v)
        summary = registry.summary("x")
        assert summary.count == 1000
        assert summary.mean == pytest.approx(sum(values) / 1000)
        assert summary.minimum == 1.0
        assert summary.maximum == 1000.0

    def test_reservoir_is_seed_deterministic(self):
        def fill(seed):
            registry = MetricsRegistry(max_samples_per_series=32,
                                       seed=seed)
            for v in range(2000):
                registry.observe("x", float(v))
            return registry.samples("x")

        assert fill(5) == fill(5)

    def test_reservoir_percentiles_are_plausible(self):
        registry = MetricsRegistry(max_samples_per_series=512)
        for v in range(20_000):
            registry.observe("x", float(v))
        summary = registry.summary("x")
        # A uniform 512-sample reservoir puts p50 well inside the middle.
        assert 20_000 * 0.3 < summary.p50 < 20_000 * 0.7

    def test_capacity_validated(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            MetricsRegistry(max_samples_per_series=0)


class TestHistograms:
    def test_bucketing_and_overflow(self):
        registry = MetricsRegistry()
        for v in (5.0, 50.0, 500.0, 5000.0):
            registry.observe_hist("cycles", v, bounds=(10.0, 100.0, 1000.0))
        hist = registry.histogram("cycles")
        assert hist.counts == (1, 1, 1, 1)
        assert hist.count == 4
        assert hist.total == 5555.0
        assert hist.cumulative() == [
            (10.0, 1), (100.0, 2), (1000.0, 3), (float("inf"), 4)
        ]

    def test_bounds_fixed_on_first_use(self):
        registry = MetricsRegistry()
        registry.observe_hist("h", 1.0, bounds=(2.0,))
        registry.observe_hist("h", 3.0, bounds=(100.0,))  # ignored
        assert registry.histogram("h").bounds == (2.0,)

    def test_missing_histogram_is_none(self):
        assert MetricsRegistry().histogram("nope") is None

    def test_invalid_bounds_rejected(self):
        from repro.errors import ConfigError

        registry = MetricsRegistry()
        with pytest.raises(ConfigError):
            registry.observe_hist("h", 1.0, bounds=())
        with pytest.raises(ConfigError):
            registry.observe_hist("h", 1.0, bounds=(1.0, 1.0))

    def test_snapshot_includes_histograms(self):
        registry = MetricsRegistry()
        registry.observe_hist("h", 1.0, bounds=(2.0,))
        snap = registry.snapshot()
        assert snap["histograms"]["h"].count == 1


_BOUNDS = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=8,
    unique=True,
)


@st.composite
def _bounds_and_values(draw):
    bounds = tuple(sorted(draw(_BOUNDS)))
    value = st.one_of(
        st.sampled_from(bounds),  # exactly on a bucket edge
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-(2 ** 40), 2 ** 40).map(float),
    )
    return bounds, draw(st.lists(value, max_size=6)), draw(
        st.lists(value, max_size=40))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestObserveHistMany:
    """One bulk call equals the same observe_hist calls, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_bounds_and_values())
    def test_equals_one_call_per_value(self, case):
        bounds, before, values = case
        one, many = MetricsRegistry(), MetricsRegistry()
        for v in before:
            one.observe_hist("h", v, bounds=bounds)
            many.observe_hist("h", v, bounds=bounds)
        for v in values:
            one.observe_hist("h", v, bounds=bounds)
        many.observe_hist_many("h", np.array(values, dtype=np.float64),
                               bounds=bounds)
        a, b = one.histogram("h"), many.histogram("h")
        if a is None:
            assert b is None
            return
        assert (a.bounds, a.counts, a.count) == (b.bounds, b.counts, b.count)
        assert _bits(a.total) == _bits(b.total)

    def test_empty_input_records_nothing(self):
        registry = MetricsRegistry()
        registry.observe_hist_many("h", [], bounds=(1.0,))
        assert registry.histogram("h") is None
        assert registry.snapshot()["histograms"] == {}

    def test_integer_columns_are_read_as_floats(self):
        one, many = MetricsRegistry(), MetricsRegistry()
        column = np.array([3, 10, 11, 2 ** 31 - 1], dtype=np.int32)
        for v in column.tolist():
            one.observe_hist("c", v, bounds=(10.0, 100.0))
        many.observe_hist_many("c", column, bounds=(10.0, 100.0))
        assert one.histogram("c") == many.histogram("c")


class TestMergeQuantileBias:
    """Regression: merged quantiles must not over-weight small workers.

    ``merge`` concatenates and truncates reservoirs, so a tiny shard's
    samples can make up a far larger share of the merged reservoir than
    of the merged population.  Quantiles therefore route through the
    mergeable sketch (exact per-shard counts) once a series outgrows its
    reservoir; the retained samples stay available via ``samples()``.
    """

    def test_merged_p95_matches_pooled_truth(self):
        from repro.service.metrics import percentile

        # Big worker: 2000 fast queries.  Small worker: 10 slow ones.
        big = MetricsRegistry(max_samples_per_series=64)
        fast = [1.0 + i * 1e-6 for i in range(2000)]
        for v in fast:
            big.observe("latency_seconds", v)
        small = MetricsRegistry(max_samples_per_series=64)
        slow = [100.0] * 10
        for v in slow:
            small.observe("latency_seconds", v)

        big.merge(small)
        merged = big.summary("latency_seconds")
        pooled = fast + slow
        truth = percentile(pooled, 95)

        # The slow shard is 0.5% of the population but would be ~13% of
        # a concatenated 74-sample reservoir, dragging p95 to 100.0.
        assert truth < 2.0
        assert merged.p95 == pytest.approx(truth, rel=0.05)
        # Exact aggregates are untouched by the sketch switch.
        assert merged.count == 2010
        assert merged.mean * merged.count == pytest.approx(sum(pooled))
        assert merged.maximum == 100.0

    def test_small_series_keeps_exact_quantiles(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            a.observe("x", v)
        b.observe("x", 4.0)
        a.merge(b)
        # Both shards fit their reservoirs, so the merged reservoir is
        # the full population and quantiles stay nearest-rank exact.
        assert a.summary("x").p50 == 2.0
        assert sorted(a.samples("x")) == [1.0, 2.0, 3.0, 4.0]

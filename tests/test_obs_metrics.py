"""Unit tests for :mod:`repro.obs.metrics`.

Counters/gauges/histograms, the fixed-bucket quantile estimator, the
get-or-create registry with snapshot-time collectors, and the
consistency contract the registry inherits from the cluster: every
counter resets and round-trips through ``snapshot()`` identically.
"""

import json
import math

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    observe_finite,
    write_metrics_json,
)


class TestCounter:
    def test_inc_and_reset(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        counter.reset()
        assert counter.value == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_and_reset(self):
        gauge = Gauge("g")
        gauge.set(2.5)
        assert gauge.value == 2.5
        gauge.reset()
        assert gauge.value == 0.0


class TestHistogram:
    def test_default_buckets_span_us_to_seconds(self):
        bounds = DEFAULT_LATENCY_BUCKETS_US
        assert bounds[0] == 1.0
        assert bounds[-1] == 10_000_000.0
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    def test_observe_many_counts_sum_min_max(self):
        hist = Histogram("h", buckets=(1.0, 10.0, 100.0))
        hist.observe_many([0.5, 5.0, 50.0, 500.0])
        assert hist.count == 4
        assert hist.sum == pytest.approx(555.5)
        snap = hist.snapshot()
        assert snap["min"] == 0.5 and snap["max"] == 500.0
        assert [count for _, count in snap["buckets"]] == [1, 1, 1]
        assert snap["overflow"] == 1

    def test_quantiles_bracket_the_samples(self):
        hist = Histogram("h")
        values = np.linspace(10.0, 1000.0, 1000)
        hist.observe_many(values)
        assert hist.quantile(0.0) <= hist.quantile(0.5) \
            <= hist.quantile(0.99) <= hist.quantile(1.0)
        # In-bucket interpolation stays within the observed range and
        # lands near the exact percentile for a dense sample.
        p50 = hist.quantile(0.5)
        assert 10.0 <= p50 <= 1000.0
        assert p50 == pytest.approx(np.percentile(values, 50), rel=0.35)

    def test_empty_histogram_snapshot(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert snap["p99"] == 0.0

    def test_non_finite_observation_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Histogram("h").observe(math.inf)

    def test_observe_finite_filters(self):
        hist = Histogram("h")
        observe_finite(hist, [1.0, math.inf, 2.0, math.nan])
        assert hist.count == 2

    def test_bad_bucket_bounds_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", buckets=())

    def test_reset_clears_distribution(self):
        hist = Histogram("h")
        hist.observe_many([1.0, 2.0, 3.0])
        hist.reset()
        assert hist.count == 0 and hist.sum == 0.0
        assert hist.snapshot()["buckets"][0][1] == 0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError, match="is a Counter"):
            registry.gauge("a")

    def test_snapshot_shape_and_json_safety(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(3)
        registry.gauge("util").set(0.5)
        registry.histogram("lat").observe_many([10.0, 20.0])
        registry.register_collector("cache",
                                    lambda: {"hits": 1, "misses": 2})
        snap = registry.snapshot()
        assert snap["counters"] == {"runs": 3}
        assert snap["gauges"] == {"util": 0.5}
        assert snap["histograms"]["lat"]["count"] == 2
        assert snap["collected"]["cache"] == {"hits": 1, "misses": 2}
        # The snapshot is the metrics-json export: it must serialise.
        json.dumps(snap, allow_nan=False)

    def test_reset_zeroes_metrics_but_keeps_collectors(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(3)
        registry.histogram("lat").observe(5.0)
        registry.register_collector("cache", lambda: {"hits": 9})
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"] == {"runs": 0}
        assert snap["histograms"]["lat"]["count"] == 0
        assert snap["collected"] == {"cache": {"hits": 9}}

    def test_non_callable_collector_rejected(self):
        with pytest.raises(ValueError, match="callable"):
            MetricsRegistry().register_collector("x", 42)

    def test_get_and_names(self):
        registry = MetricsRegistry()
        counter = registry.counter("b")
        registry.gauge("a")
        assert registry.get("b") is counter
        assert registry.names() == ["a", "b"]
        with pytest.raises(KeyError):
            registry.get("absent")


class TestWriteMetricsJson:
    def test_writes_indented_sorted_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.gauge("util").set(0.5)
        registry.counter("runs").inc(2)
        path = write_metrics_json(registry, tmp_path / "metrics.json")
        assert path.read_text() == json.dumps(
            registry.snapshot(), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_gauge_raises_and_leaves_no_file(self, tmp_path,
                                                        value):
        registry = MetricsRegistry()
        registry.gauge("util").set(value)
        path = tmp_path / "metrics.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_metrics_json(registry, path)
        assert not path.exists()

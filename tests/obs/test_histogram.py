"""Histogram unit tests: percentile edge cases and bucket boundaries."""

import math

import pytest

from repro.obs import Histogram


class TestEmpty:
    def test_empty_percentiles_are_zero(self):
        h = Histogram()
        assert h.percentile(0) == 0.0
        assert h.p50 == 0.0
        assert h.p99 == 0.0
        assert h.mean == 0.0
        assert h.count == 0

    def test_empty_to_dict(self):
        d = Histogram().to_dict()
        assert d == {"n": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                     "p99": 0.0, "max": 0.0}


class TestSingleSample:
    def test_single_sample_exact_at_every_percentile(self):
        # Clamping to [min, max] must make one sample exact everywhere,
        # regardless of where the bucket midpoint falls.
        h = Histogram()
        h.add(3.7e-3)
        for q in (0, 1, 50, 90, 99, 100):
            assert h.percentile(q) == pytest.approx(3.7e-3)
        assert h.mean == pytest.approx(3.7e-3)
        assert h.to_dict()["max"] == pytest.approx(3.7e-3)

    def test_single_zero_sample(self):
        h = Histogram()
        h.add(0.0)
        assert h.p50 == 0.0
        assert h.p99 == 0.0
        assert h.count == 1


class TestBoundaries:
    def test_negative_clamps_to_zero(self):
        h = Histogram()
        h.add(-1.0)
        assert h.count == 1
        assert h.min == 0.0
        assert h.p50 == 0.0

    def test_underflow_bucket(self):
        # Values below min_value are "effectively free", not errors.
        h = Histogram(min_value=1e-6)
        for _ in range(10):
            h.add(1e-9)
        assert h.p50 == pytest.approx(1e-9)
        assert h.p99 == pytest.approx(1e-9)

    def test_value_exactly_min_value_lands_in_bucket_zero(self):
        h = Histogram(min_value=1e-6)
        h.add(1e-6)
        assert h._buckets.get(0) == 1
        assert h._underflow == 0

    def test_bucket_edge_consistency(self):
        # A sample on (or within float error of) a bucket edge must land
        # in exactly one bucket and still report within the relative
        # error bound implied by the bucket width.
        factor = 2 ** 0.25
        h = Histogram(min_value=1e-9, factor=factor)
        edges = [1e-9 * factor ** i for i in range(1, 40)]
        for v in edges:
            h.add(v)
        assert h.count == len(edges)
        assert sum(h._buckets.values()) + h._underflow == len(edges)

    def test_percentile_relative_error_bound(self):
        # Midpoint-of-bucket estimates stay within the bucket's ~19%
        # width of the true value across decades.
        h = Histogram()
        values = [10 ** (-7 + i * 0.01) for i in range(900)]
        for v in values:
            h.add(v)
        values.sort()
        for q in (10, 50, 90, 99):
            true = values[min(len(values) - 1,
                              math.ceil(q / 100 * len(values)) - 1)]
            assert h.percentile(q) == pytest.approx(true, rel=0.12)

    def test_percentiles_monotonic(self):
        h = Histogram()
        for i in range(1, 200):
            h.add(i * 1e-4)
        last = 0.0
        for q in range(0, 101, 5):
            p = h.percentile(q)
            assert p >= last
            last = p
        # p100 is a bucket-midpoint estimate clamped to the observed max.
        assert h.percentile(100) <= h.max
        assert h.percentile(100) == pytest.approx(h.max, rel=0.12)

    def test_invalid_q_rejected(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Histogram(min_value=0)
        with pytest.raises(ValueError):
            Histogram(factor=1.0)

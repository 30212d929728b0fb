"""repro.obs.metrics.Histogram: log-bucketed layout and its accuracy contract."""

import math

import numpy as np
import pytest

from repro.obs.export import to_prometheus_text
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.utils.rng import new_rng

from tests.oracle.obs import exact_percentile, parse_prometheus_text


def bucket_pairs(h: Histogram):
    """``(le, cumulative count)`` as :meth:`Histogram.as_dict` exports them,
    ``+Inf`` read back as ``math.inf``."""
    return [(math.inf if le == "+Inf" else le, c) for le, c in h.as_dict()["buckets"]]


def heavy_tailed(n: int = 20_000, seed: int = 7) -> np.ndarray:
    """A lognormal latency-like sample: most mass low, a long p999 tail."""
    rng = new_rng(seed)
    return np.exp(rng.normal(loc=-5.0, scale=1.5, size=n))


class TestBucketLayout:
    def test_boundaries_are_geometric(self):
        h = Histogram("x", min_value=1e-3, max_value=1e0, buckets_per_decade=10)
        for v in np.geomspace(1e-3, 1.0, 31):  # one value per bucket
            h.observe(float(v))
        b = np.asarray([le for le, _ in bucket_pairs(h)[:-1]])
        assert b.size == 31
        ratios = b[1:] / b[:-1]
        assert np.allclose(ratios, 10 ** 0.1)
        assert b[0] == pytest.approx(1e-3)
        assert b[-1] >= 1.0

    def test_relative_error_formula(self):
        h = Histogram("x", buckets_per_decade=30)
        assert h.relative_error == pytest.approx(10 ** (1 / 30) - 1)
        assert h.relative_error < 0.08  # <8% at the default resolution

    def test_bucket_index_covers_clamp_and_overflow(self):
        h = Histogram("x", min_value=1e-3, max_value=1e0, buckets_per_decade=10)
        assert h.bucket_index(0.0) == 0  # below min clamps into bucket 0
        assert h.bucket_index(1e-9) == 0
        assert h.bucket_index(1e-3) == 0  # boundary is inclusive
        assert h.bucket_index(1.0) == 30  # the last finite bucket
        assert h.bucket_index(1e9) == 31  # overflow

    def test_memory_is_bounded(self):
        h = Histogram("x")  # default 1e-6..1e3, 30/decade
        overflow = h.bucket_index(math.inf)  # the bucket count
        assert overflow <= 9 * 30 + 1
        for v in np.linspace(1e-6, 2e3, 10_000):
            h.observe(v)
        assert h.bucket_index(math.inf) == overflow  # observations never grow it

    def test_validation(self):
        with pytest.raises(ValueError, match="min_value"):
            Histogram("x", min_value=0.0)
        with pytest.raises(ValueError, match="max_value"):
            Histogram("x", min_value=1.0, max_value=0.5)
        with pytest.raises(ValueError, match="buckets_per_decade"):
            Histogram("x", buckets_per_decade=0)
        with pytest.raises(ValueError, match="percentile"):
            Histogram("x").percentile(101.0)


class TestPercentileAccuracy:
    def test_empty_reads_zero(self):
        h = Histogram("x")
        assert h.percentile(99.9) == 0.0
        assert h.count == 0

    @pytest.mark.parametrize("p", [50.0, 95.0, 99.0, 99.9])
    def test_within_one_bucket_of_exact_on_heavy_tail(self, p):
        """The accuracy contract the reported tail percentiles rely on."""
        samples = heavy_tailed()
        h = Histogram("lat")
        for v in samples:
            h.observe(float(v))
        exact = exact_percentile(samples, p)
        estimate = h.percentile(p)
        assert estimate >= exact  # reported boundary is an upper bound
        assert abs(h.bucket_index(estimate) - h.bucket_index(exact)) <= 1

    def test_overflow_reports_exact_max(self):
        h = Histogram("x", min_value=1e-3, max_value=1e0)
        for v in (0.5, 123.25, 999.5):
            h.observe(v)
        assert h.percentile(99.9) == 999.5
        assert h.max_observed == 999.5

    def test_streaming_moments_are_exact(self):
        h = Histogram("x")
        values = [0.004, 0.001, 0.25, 0.002]
        for v in values:
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(sum(values))
        assert h.min_observed == 0.001
        assert h.max_observed == 0.25


class TestCumulativeBuckets:
    def test_monotone_and_terminated_by_inf(self):
        h = Histogram("x")
        for v in (0.001, 0.002, 0.002, 0.004):
            h.observe(v)
        pairs = bucket_pairs(h)
        les = [le for le, _ in pairs]
        counts = [c for _, c in pairs]
        assert les == sorted(les)
        assert counts == sorted(counts)  # cumulative, non-decreasing
        assert math.isinf(les[-1]) and counts[-1] == h.count

    def test_empty_emits_only_inf(self):
        assert bucket_pairs(Histogram("x")) == [(math.inf, 0)]

    def test_all_overflow_emits_only_inf(self):
        h = Histogram("x", min_value=1e-3, max_value=1e-2)
        h.observe(5.0)
        assert bucket_pairs(h) == [(math.inf, 1)]

    def test_trims_leading_zero_buckets(self):
        h = Histogram("x")
        h.observe(0.5)  # far above min_value
        pairs = bucket_pairs(h)
        assert pairs[0][1] == 1  # first emitted bucket already has count


class TestPrometheusExposition:
    """Satellite 1: real cumulative ``_bucket{le=...}`` lines."""

    def make_registry(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency.e2e_seconds")
        for v in (0.001, 0.002, 0.004, 0.008, 5000.0):  # one overflow
            h.observe(v)
        return reg, h

    def test_histogram_family_shape(self):
        reg, h = self.make_registry()
        text = to_prometheus_text(reg)
        assert "# TYPE repro_latency_e2e_seconds histogram" in text
        assert 'repro_latency_e2e_seconds_bucket{le="+Inf"} 5' in text
        assert "repro_latency_e2e_seconds_count 5" in text
        # no summary-form quantile lines
        assert 'repro_latency_e2e_seconds{quantile=' not in text

    def test_round_trip_recovers_cumulative_counts(self):
        reg, h = self.make_registry()
        series = parse_prometheus_text(to_prometheus_text(reg))
        for le, cumulative in bucket_pairs(h):
            label = "+Inf" if math.isinf(le) else repr(float(le))
            key = f'repro_latency_e2e_seconds_bucket{{le="{label}"}}'
            assert series[key] == float(cumulative)
        assert series["repro_latency_e2e_seconds_count"] == 5.0
        assert series["repro_latency_e2e_seconds_sum"] == pytest.approx(h.sum)


class TestExactPercentile:
    def test_matches_ceil_rank_definition(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert exact_percentile(values, 50.0) == 2.0  # rank ceil(2)=2
        assert exact_percentile(values, 75.0) == 3.0
        assert exact_percentile(values, 100.0) == 4.0
        assert exact_percentile(values, 0.0) == 1.0  # rank floor is 1
        assert exact_percentile([], 99.0) == 0.0

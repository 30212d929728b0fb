"""repro.obs.metrics: instruments, bounded histograms, thread safety."""

import math
import threading

import numpy as np
import pytest

from repro.obs.export import to_prometheus_text
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

from tests.oracle.obs import exact_percentile, parse_prometheus_text


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("events")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_inc_rejected(self):
        c = Counter("events")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_as_dict(self):
        c = Counter("events")
        c.inc(3)
        assert c.as_dict() == {"type": "counter", "value": 3}


class TestGauge:
    def test_set_replaces_the_level(self):
        g = Gauge("depth")
        g.set(5.0)
        g.set(-3.0)
        assert g.value == -3.0

    def test_as_dict(self):
        g = Gauge("depth")
        g.set(2)
        assert g.as_dict() == {"type": "gauge", "value": 2.0}


class TestHistogram:
    def test_percentiles_are_bucket_upper_bounds_within_relative_error(self):
        h = Histogram("latency", min_value=1.0, max_value=1e3)
        values = list(range(1, 101))
        for v in values:
            h.observe(v)
        for p in (50.0, 95.0, 99.0):
            exact = exact_percentile(values, p)
            assert exact <= h.percentile(p) <= exact * (1.0 + h.relative_error)
            assert h.percentile(p) in [le for le, _ in h.as_dict()["buckets"]]

    def test_memory_stays_bounded_and_moments_exact(self):
        h = Histogram("latency")
        buckets = h.bucket_index(math.inf)  # the overflow bucket's index
        for v in range(10_000):
            h.observe(v)
        assert h.bucket_index(math.inf) == buckets  # observations never grow it
        assert h.count == 10_000
        # streaming moments are exact: 0 is under range, 1001.. over range
        assert h.sum == float(sum(range(10_000)))
        assert h.mean == h.sum / 10_000
        assert h.min_observed == 0.0 and h.max_observed == 9999.0

    def test_one_backend_one_answer(self):
        """Regression: a histogram had a reservoir *and* mirrored
        buckets, so ``as_dict()["p99"]`` and ``percentile(99)`` disagreed
        for the same instrument and the exporter emitted whichever fork
        it hit.  One backend: every reported quantile is the
        ``percentile()`` answer, the exposition is the bucket family,
        and out-of-range observations leave count / sum / max exact."""
        reg = MetricsRegistry()
        h = reg.histogram("stage.train_seconds")
        rng = np.random.default_rng(5)
        values = rng.lognormal(mean=-6.0, sigma=1.5, size=3000).tolist()
        values += [1e-9, 0.0, 5e3, 7e4]  # two under range, two over range
        for v in values:
            h.observe(v)
        d = h.as_dict()
        assert Histogram.PERCENTILES == (50.0, 95.0, 99.0, 99.9)
        for p in Histogram.PERCENTILES:
            assert d[f"p{p:g}"] == h.percentile(p)
        assert d["count"] == h.count == len(values)
        assert d["sum"] == h.sum == pytest.approx(sum(values), rel=1e-12)
        assert d["mean"] == h.mean
        assert d["min"] == 0.0 and d["max"] == 7e4
        assert h.percentile(100.0) == 7e4  # overflow reports the exact max
        series = parse_prometheus_text(to_prometheus_text(reg))
        assert series['repro_stage_train_seconds_bucket{le="+Inf"}'] == h.count
        assert series["repro_stage_train_seconds_count"] == h.count
        assert series["repro_stage_train_seconds_sum"] == h.sum
        assert not any("quantile=" in key for key in series)
        # the two over-range observations sit only in the +Inf bucket
        assert d["buckets"][-2][1] == h.count - 2

    def test_time_context_manager_observes_laps(self):
        h = Histogram("elapsed")
        with h.time():
            pass
        with h.time():
            pass
        assert h.count == 2
        assert 0.0 <= h.min_observed <= h.max_observed

    def test_as_dict_keys_are_the_stable_schema(self):
        h = Histogram("latency")
        h.observe(1.0)
        d = h.as_dict()
        assert set(d) == {
            "type", "count", "sum", "mean", "min", "max", "relative_error",
            "p50", "p95", "p99", "p99.9", "buckets",
        }
        assert d["count"] == 1 and d["mean"] == 1.0 and d["max"] == 1.0

    def test_empty_histogram_is_all_zeros(self):
        h = Histogram("latency")
        assert h.percentile(50.0) == 0.0
        assert h.as_dict() == {
            "type": "histogram",
            "count": 0,
            "sum": 0.0,
            "mean": 0.0,
            "min": 0.0,
            "max": 0.0,
            "relative_error": h.relative_error,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "p99.9": 0.0,
            "buckets": [["+Inf", 0]],
        }


class TestRegistry:
    def test_get_or_create_returns_identical_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")
        assert len(reg) == 3
        assert list(reg) == ["a", "b", "c"]

    def test_name_collision_message_names_both_kinds(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError) as exc:
            reg.gauge("x")
        msg = str(exc.value)
        assert "metric name collision" in msg
        assert "'x'" in msg and "Counter" in msg and "Gauge" in msg

    def test_get_returns_none_for_unknown(self):
        reg = MetricsRegistry()
        assert reg.get("missing") is None

    def test_as_dict_and_to_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.histogram("b").observe(1.5)
        d = reg.as_dict()
        assert d["a"] == {"type": "counter", "value": 2}
        assert d["b"]["count"] == 1
        path = tmp_path / "metrics.json"
        reg.to_json(str(path))
        assert path.exists() and '"counter"' in path.read_text()


class TestThreadSafety:
    """Hammer one registry from many threads; totals must be exact."""

    N_THREADS = 8
    N_OPS = 2_000

    def test_concurrent_counter_incs_are_lossless(self):
        reg = MetricsRegistry()

        def work():
            c = reg.counter("hits")
            for _ in range(self.N_OPS):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hits").value == self.N_THREADS * self.N_OPS

    def test_concurrent_histogram_observes_are_lossless(self):
        reg = MetricsRegistry()

        def work():
            h = reg.histogram("lat")
            for i in range(self.N_OPS):
                h.observe(float(i))

        threads = [threading.Thread(target=work) for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        h = reg.histogram("lat")
        assert h.count == self.N_THREADS * self.N_OPS
        assert h.sum == float(self.N_THREADS * sum(range(self.N_OPS)))
        assert h.as_dict()["buckets"][-1] == ["+Inf", h.count]

    def test_concurrent_get_or_create_yields_one_instrument(self):
        reg = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(self.N_THREADS)

        def work():
            barrier.wait()
            seen.append(reg.counter("shared"))

        threads = [threading.Thread(target=work) for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(reg) == 1
        assert all(c is seen[0] for c in seen)

    def test_mixed_hammer_is_sanitizer_clean(self):
        """Counters, gauges and histograms hammered together under the
        runtime lock sanitizer: no inversion, no unguarded write."""
        from reprolint import threadcheck

        with threadcheck() as monitor:
            reg = MetricsRegistry()

            def work():
                for i in range(self.N_OPS // 4):
                    reg.counter("hits").inc()
                    reg.gauge("depth").set(float(i))
                    reg.histogram("lat").observe(float(i))

            threads = [
                threading.Thread(target=work) for _ in range(self.N_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            snapshot = reg.as_dict()
        assert monitor.inversions == []
        assert monitor.unguarded_writes == []
        assert snapshot["hits"]["value"] == self.N_THREADS * (self.N_OPS // 4)

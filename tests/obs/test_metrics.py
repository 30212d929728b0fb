"""repro.obs.metrics: instruments, bounded reservoir, thread safety."""

import threading

import numpy as np
import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


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

    def test_set_syncs_external_total(self):
        c = Counter("events")
        c.set(10)
        c.set(10)  # no movement is fine
        c.set(12)
        assert c.value == 12

    def test_stale_set_is_dropped_not_raised(self):
        """A mirror write carrying an older reading (a slower thread's)
        must not fail the call it reports on: the latch keeps the max."""
        c = Counter("events")
        c.set(10)
        c.set(9)
        assert c.value == 10

    def test_as_dict(self):
        c = Counter("events")
        c.inc(3)
        assert c.as_dict() == {"type": "counter", "value": 3}


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(5.0)
        g.inc()
        g.inc(2.5)
        g.dec(0.5)
        assert g.value == 8.0

    def test_can_go_negative(self):
        g = Gauge("drift")
        g.dec(3.0)
        assert g.value == -3.0

    def test_as_dict(self):
        g = Gauge("depth")
        g.set(2)
        assert g.as_dict() == {"type": "gauge", "value": 2.0}


class TestHistogram:
    def test_exact_percentiles_below_reservoir_bound(self):
        """While count <= reservoir_size every sample is retained, so
        percentiles are exactly numpy's over the full data."""
        h = Histogram("latency", reservoir_size=256)
        values = list(range(100))
        for v in values:
            h.observe(v)
        data = np.asarray(values, dtype=np.float64)
        for p in (50.0, 95.0, 99.0):
            assert h.percentile(p) == float(np.percentile(data, p))
        assert h.samples == [float(v) for v in values]

    def test_reservoir_stays_bounded(self):
        h = Histogram("latency", reservoir_size=32)
        for v in range(10_000):
            h.observe(v)
        assert len(h.samples) == 32
        assert h.count == 10_000
        # streaming moments stay exact regardless of the bound
        assert h.sum == float(sum(range(10_000)))
        assert h.mean == h.sum / 10_000
        assert h.max_value == 9999.0

    def test_reservoir_is_deterministic_per_name(self):
        a = Histogram("latency.recommend", reservoir_size=16)
        b = Histogram("latency.recommend", reservoir_size=16)
        for v in range(500):
            a.observe(v)
            b.observe(v)
        assert a.samples == b.samples

    def test_reservoir_is_a_uniformish_subsample(self):
        """Past the bound the reservoir holds a subset of observed values
        spanning the stream, not just a head or tail window."""
        h = Histogram("latency", reservoir_size=64)
        for v in range(4096):
            h.observe(v)
        samples = h.samples
        assert len(samples) == 64
        assert all(0 <= s < 4096 for s in samples)
        assert min(samples) < 1024 and max(samples) >= 3072

    def test_time_context_manager_observes_laps(self):
        h = Histogram("elapsed")
        with h.time():
            pass
        with h.time():
            pass
        assert h.count == 2
        assert all(s >= 0.0 for s in h.samples)

    def test_as_dict_keys_are_the_stable_schema(self):
        h = Histogram("latency")
        h.observe(1.0)
        d = h.as_dict()
        assert set(d) == {"type", "count", "mean", "max", "p50", "p95", "p99"}
        assert d["count"] == 1 and d["mean"] == 1.0 and d["max"] == 1.0

    def test_empty_histogram_is_all_zeros(self):
        h = Histogram("latency")
        assert h.percentile(50.0) == 0.0
        assert h.as_dict() == {
            "type": "histogram",
            "count": 0,
            "mean": 0.0,
            "max": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }

    def test_invalid_reservoir_size_rejected(self):
        with pytest.raises(ValueError, match="reservoir_size"):
            Histogram("latency", reservoir_size=0)


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
            h = reg.histogram("lat", reservoir_size=64)
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
        assert len(h.samples) == 64

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
        from repro.analysis import threadcheck

        with threadcheck() as monitor:
            reg = MetricsRegistry()

            def work():
                for i in range(self.N_OPS // 4):
                    reg.counter("hits").inc()
                    reg.gauge("depth").set(float(i))
                    reg.histogram("lat", reservoir_size=32).observe(float(i))

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

    def test_concurrent_gauge_inc_dec_balance(self):
        reg = MetricsRegistry()

        def work():
            g = reg.gauge("depth")
            for _ in range(self.N_OPS):
                g.inc(2.0)
                g.dec(1.0)

        threads = [threading.Thread(target=work) for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.gauge("depth").value == float(self.N_THREADS * self.N_OPS)

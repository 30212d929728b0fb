"""Tests for the serving metrics registry."""

import json
import time

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_moves_both_ways(self):
        g = Gauge("depth")
        g.set(7)
        assert g.value == 7.0
        g.set(2.5)
        assert g.value == 2.5


class TestHistogram:
    def test_percentiles(self):
        h = Histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        # bucket upper bounds: at or just above the exact ceil-rank quantile
        assert 50.0 <= h.percentile(50.0) <= 50.0 * (1 + h.relative_error)
        assert 99.0 <= h.percentile(99.0) <= 99.0 * (1 + h.relative_error)

    def test_empty_summary_is_zero(self):
        d = Histogram("lat").as_dict()
        assert d["count"] == 0 and d["p95"] == 0.0

    def test_time_context_observes_laps(self):
        h = Histogram("lat")
        with h.time():
            time.sleep(0.001)
        with h.time():
            pass
        assert h.count == 2
        assert h.max_observed >= 0.001
        assert h.min_observed >= 0.0

    def test_summary_keys(self):
        h = Histogram("lat")
        h.observe(1.0)
        d = h.as_dict()
        assert {"type", "count", "mean", "max", "p50", "p95", "p99"} <= set(d)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_as_dict_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.gauge("a").set(3)
        reg.histogram("c").observe(0.5)
        d = reg.as_dict()
        assert list(d) == ["a", "b", "c"]
        assert d["b"]["value"] == 1

    def test_to_json_writes_file(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("events").inc(3)
        path = tmp_path / "metrics.json"
        payload = reg.to_json(str(path))
        assert json.loads(payload) == json.loads(path.read_text())
        assert json.loads(payload)["events"]["value"] == 3

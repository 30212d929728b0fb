"""repro.obs.export: Prometheus text round-trip and JSONL snapshots."""

import json

import pytest

from repro.obs.export import to_prometheus_text, write_jsonl_snapshot
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

from tests.oracle.obs import parse_prometheus_text


def make_registry():
    reg = MetricsRegistry()
    reg.counter("events.ingested").inc(7)
    reg.gauge("queue.depth").set(3.5)
    h = reg.histogram("latency.recommend_seconds")
    for v in (0.001, 0.002, 0.004, 0.008):
        h.observe(v)
    return reg


class TestPrometheusText:
    def test_exposition_shape(self):
        text = to_prometheus_text(make_registry())
        assert "# TYPE repro_events_ingested counter" in text
        assert "repro_events_ingested 7" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 3.5" in text
        assert "# TYPE repro_latency_recommend_seconds histogram" in text
        assert 'repro_latency_recommend_seconds_bucket{le="+Inf"} 4' in text
        assert "quantile=" not in text  # one exposition path: bucket families
        assert "repro_latency_recommend_seconds_count 4" in text
        assert text.endswith("\n")

    def test_round_trip(self):
        reg = make_registry()
        series = parse_prometheus_text(to_prometheus_text(reg))
        assert series["repro_events_ingested"] == 7.0
        assert series["repro_queue_depth"] == 3.5
        h = reg.histogram("latency.recommend_seconds")
        # the median's bucket is the first whose cumulative count reaches rank 2
        key = f'repro_latency_recommend_seconds_bucket{{le="{h.percentile(50.0)!r}"}}'
        assert series[key] == 2.0
        assert series['repro_latency_recommend_seconds_bucket{le="+Inf"}'] == 4.0
        assert series["repro_latency_recommend_seconds_count"] == 4.0
        assert series["repro_latency_recommend_seconds_sum"] == h.sum

    def test_accepts_as_dict_form(self):
        reg = make_registry()
        assert to_prometheus_text(reg.as_dict()) == to_prometheus_text(reg)

    def test_empty_registry_is_empty_text(self):
        assert to_prometheus_text(MetricsRegistry()) == ""
        assert parse_prometheus_text("") == {}

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown instrument type"):
            to_prometheus_text({"x": {"type": "mystery"}})

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text("just_a_name_no_value")


class TestJsonlSnapshot:
    def test_appends_one_line_per_call(self, tmp_path):
        path = tmp_path / "out" / "telemetry.jsonl"  # parent auto-created
        write_jsonl_snapshot(str(path), metrics=make_registry(), label="run-1")
        write_jsonl_snapshot(str(path), metrics=make_registry(), label="run-2")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["label"] == "run-1"
        assert first["metrics"]["events.ingested"]["value"] == 7

    def test_trace_and_extra_ride_along(self, tmp_path):
        tracer = Tracer()
        with tracer.span("serve.service.update", events=5):
            pass
        path = tmp_path / "telemetry.jsonl"
        record = write_jsonl_snapshot(
            str(path),
            trace=tracer,
            extra={"events_per_second": 1234.5},
        )
        assert record["trace"]["spans"][0]["name"] == "serve.service.update"
        assert record["events_per_second"] == 1234.5
        assert json.loads(path.read_text()) == record

    def test_identical_runs_write_identical_lines(self, tmp_path):
        """No timestamps: telemetry from identical runs is diffable."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl_snapshot(str(a), metrics=make_registry(), label="x")
        write_jsonl_snapshot(str(b), metrics=make_registry(), label="x")
        assert a.read_bytes() == b.read_bytes()

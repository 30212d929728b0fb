"""repro.obs — the observability spine: metrics, tracing, exporters.

One dependency-free subsystem shared by every layer:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments
  (histograms are bounded and tail-accurate: exact per-bucket counts
  over fixed log-spaced buckets plus exact count/sum/min/max, so
  replay-scale sample counts cannot leak memory and p99/p99.9 stay
  within one bucket at any observation count);
* :mod:`repro.obs.trace` — nested span tracing
  (``with tracer.span("core.engine.execute", edges=n): ...``) with an
  aggregated parent/child span tree, JSON export and a self-time flame
  table; the default :data:`NULL_TRACER` is a no-op so instrumented hot
  paths cost nothing until tracing is switched on;
* :mod:`repro.obs.export` — Prometheus-style text exposition (histograms
  as cumulative ``_bucket{le=...}`` families) and a JSONL snapshot
  writer.

Span names follow the ``layer.component.phase`` convention documented
in DESIGN.md §10 (e.g. ``core.inslearn.replay``, ``core.engine.compile``,
``serve.service.query``).
"""

from repro.obs.export import to_prometheus_text, write_jsonl_snapshot
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    SpanNode,
    Tracer,
    format_flame_table,
    format_span_tree,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanNode",
    "format_span_tree",
    "format_flame_table",
    "to_prometheus_text",
    "write_jsonl_snapshot",
]

"""Telemetry exposition: Prometheus-style text and JSONL snapshots.

Two formats, both deliberately boring:

* :func:`to_prometheus_text` renders a :class:`~repro.obs.metrics.MetricsRegistry`
  (or its ``as_dict()``) in the Prometheus text exposition format —
  counters and gauges become single samples, histograms become
  Prometheus *histogram* families: cumulative ``_bucket{le="..."}``
  series ending in ``le="+Inf"``, plus ``_count``/``_sum`` (quantiles
  are derivable from the buckets, ``histogram_quantile``-style).  Metric
  names are sanitised (dots → underscores) and prefixed ``repro_``, so
  the text is scrapeable by anything that speaks Prometheus (the tests
  read it back with their own round-trip parser).
* :func:`write_jsonl_snapshot` appends one JSON object per call to a
  ``.jsonl`` file — metrics summary, span tree, and an optional label /
  extra payload — so replay drivers and benchmark harnesses accumulate
  comparable telemetry over time.  Snapshots carry no timestamps:
  identical runs write identical lines.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Union

from repro.obs.metrics import MetricsRegistry

_PREFIX = "repro_"


def _sanitize(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    sane = "".join(out)
    if not sane or not (sane[0].isalpha() or sane[0] == "_"):
        sane = "_" + sane
    return _PREFIX + sane


def _format_value(value: object) -> str:
    # repr() keeps floats round-trippable; ints stay ints.
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _format_le(le: object) -> str:
    return le if isinstance(le, str) else repr(float(le))


def _histogram_family_lines(sane: str, info: Dict[str, object]) -> list:
    """Prometheus *histogram* exposition from a histogram summary:
    cumulative ``_bucket{le=...}`` samples ending at ``+Inf``, then
    ``_count`` and ``_sum``."""
    lines = [f"# TYPE {sane} histogram"]
    for le, cumulative in info["buckets"]:
        lines.append(
            f'{sane}_bucket{{le="{_format_le(le)}"}} {_format_value(cumulative)}'
        )
    lines.append(f"{sane}_count {_format_value(info['count'])}")
    lines.append(f"{sane}_sum {_format_value(info['sum'])}")
    return lines


def to_prometheus_text(
    metrics: Union[MetricsRegistry, Dict[str, Dict[str, object]]],
) -> str:
    """Render a metrics registry (or its ``as_dict()``) as Prometheus text."""
    summary = metrics.as_dict() if isinstance(metrics, MetricsRegistry) else metrics
    lines = []
    for name in sorted(summary):
        info = summary[name]
        kind = info.get("type")
        sane = _sanitize(name)
        if kind in ("counter", "gauge"):
            lines.append(f"# TYPE {sane} {kind}")
            lines.append(f"{sane} {_format_value(info['value'])}")
        elif kind == "histogram":
            lines.extend(_histogram_family_lines(sane, info))
        else:
            raise ValueError(f"unknown instrument type {kind!r} for {name!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl_snapshot(
    path: str,
    metrics: Optional[Union[MetricsRegistry, Dict[str, Dict[str, object]]]] = None,
    trace: Optional[object] = None,
    label: Optional[str] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Append one JSON snapshot line to ``path`` and return the record.

    ``trace`` is any tracer (its ``as_dict()`` is embedded); ``extra``
    merges additional top-level fields (e.g. benchmark throughput
    numbers) into the record.
    """
    record: Dict[str, object] = {}
    if label is not None:
        record["label"] = label
    if metrics is not None:
        record["metrics"] = (
            metrics.as_dict() if isinstance(metrics, MetricsRegistry) else metrics
        )
    if trace is not None:
        record["trace"] = trace.as_dict() if hasattr(trace, "as_dict") else trace
    if extra:
        record.update(extra)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record

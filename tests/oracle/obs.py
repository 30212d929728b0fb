"""Round-trip oracles of the observability exporters (DESIGN.md §10).

:func:`exact_percentile` is the ground truth a bucketed
:class:`~repro.obs.metrics.Histogram` estimate is compared against, and
:func:`parse_prometheus_text` reads
:func:`~repro.obs.export.to_prometheus_text`'s exposition back into a
flat dict, so the format is checked as a round trip.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np


def exact_percentile(values: Sequence[float], p: float) -> float:
    """Rank-based exact quantile matching :meth:`Histogram.percentile`.

    Uses the same ceil-rank definition (the smallest value with at least
    ``ceil(p/100 * n)`` observations at or below it) so tests can
    compare a bucketed estimate against ground truth
    bucket-for-bucket.
    """
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.size == 0:
        return 0.0
    rank = max(1, int(math.ceil(p / 100.0 * data.size)))
    return float(data[rank - 1])


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{series_name: value}``.

    Labelled samples keep their label block in the key
    (``repro_serve_latency_bucket{le="0.5"}``).  Comment and blank lines
    are skipped.
    """
    series: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if not key:
            raise ValueError(f"malformed exposition line: {line!r}")
        series[key] = float(value)
    return series

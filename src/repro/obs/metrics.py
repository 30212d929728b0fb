"""The shared, thread-safe metrics registry.

Grown out of the serving layer's process-local registry so the
trainer, the execution engines, sampling and the serving stack all
report into one instrument namespace.  Three instrument kinds cover
everything the system reports:

* :class:`Counter` — monotonically increasing event counts, moved by
  ``inc`` (events offered, recommendations served, plan edges compiled),
* :class:`Gauge` — a point-in-time level, replaced by ``set`` (events
  behind the published snapshot),
* :class:`Histogram` — latency/size distributions summarised as
  count/sum/mean/min/max plus p50/p95/p99/p99.9.  **Bounded and
  tail-accurate**: a fixed array of log-spaced buckets with exact
  per-bucket counts (no sampling), so memory is constant under
  replay-scale load and every quantile is a bucket upper bound within
  :attr:`Histogram.relative_error` (~8 % at the default 30 buckets per
  decade over 1 µs – 1000 s) at any observation count, while count,
  sum, min and max stay exact.  The buckets map one-to-one onto
  Prometheus *histogram* exposition (:mod:`repro.obs.export`).
  ``registry.histogram(name, min_value=..., max_value=...)`` picks
  another range for non-latency sizes.

Every mutating operation is lock-guarded — registry get-or-create and
instrument observe/inc/set — so ingest producers, the dispatcher thread
and concurrent readers can share one registry without lost updates.  A
tally some component already keeps is not copied in: the counter or
gauge is registered with a ``source`` and reads its owner on demand, so
every tally has one owner (the queue's accepts, the log's appends, a
follower's lag) and no instrument mirrors another object's count.  The
registry renders to plain dictionaries / JSON so replay drivers and
benchmarks persist snapshots next to their tables; Prometheus text and
JSONL exposition live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.utils.timer import Timer


class Counter:
    """A monotonically increasing counter.

    With a ``source`` the counter owns no total: ``value`` (and so every
    export) calls ``source()`` — the component that keeps the tally —
    with no registry or counter lock held, and ``inc`` raises.
    """

    def __init__(self, name: str, source: Optional[Callable[[], float]] = None):
        self.name = name
        self._source = source
        self._total = 0
        self._lock = threading.Lock()

    @property
    def value(self):
        if self._source is not None:
            return self._source()
        with self._lock:
            return self._total

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        if self._source is not None:
            raise _sourced(self)
        with self._lock:
            self._total += amount

    def as_dict(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time level replaced by :meth:`set`, or — with a
    ``source`` — read from its owner like a sourced :class:`Counter`."""

    def __init__(self, name: str, source: Optional[Callable[[], float]] = None):
        self.name = name
        self._source = source
        self._level = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        if self._source is not None:
            return float(self._source())
        with self._lock:
            return self._level

    def set(self, value: float) -> None:
        if self._source is not None:
            raise _sourced(self)
        with self._lock:
            self._level = float(value)

    def as_dict(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}


def _sourced(instrument) -> TypeError:
    return TypeError(
        f"metric {instrument.name!r} is sourced: its owner keeps the "
        "tally, the registry only reads it"
    )


class _HistogramTimer(Timer):
    """A :class:`Timer` whose laps feed a histogram on exit."""

    def __init__(self, histogram: "Histogram"):
        super().__init__()
        self._histogram = histogram

    def __exit__(self, *exc_info) -> None:
        super().__exit__(*exc_info)
        self._histogram.observe(self.laps[-1])


class Histogram:
    """Exact-count log-bucketed histogram with bounded memory.

    A fixed array of geometrically spaced buckets covers
    ``[min_value, max_value]`` with ``buckets_per_decade`` buckets per
    decade; every observation lands in exactly one bucket (no
    sampling).  Values at or below ``min_value`` fall into the first
    bucket, values above ``max_value`` into the overflow (``+Inf``)
    bucket.  ``count``, ``sum`` (so ``mean``), ``min_observed`` and
    ``max_observed`` are exact streaming moments whatever the range.

    ``observe`` records raw values (the service records seconds);
    :meth:`time` returns a context manager that records one wall-clock
    lap per ``with`` block.  Thread-safe: one lock guards the bucket
    counts and the moments; reads snapshot under it and compute outside.
    """

    #: percentiles reported by :meth:`as_dict`.
    PERCENTILES = (50.0, 95.0, 99.0, 99.9)

    def __init__(
        self,
        name: str,
        min_value: float = 1e-6,
        max_value: float = 1e3,
        buckets_per_decade: int = 30,
    ):
        if min_value <= 0.0:
            raise ValueError(f"min_value must be > 0, got {min_value}")
        if max_value <= min_value:
            raise ValueError(
                f"max_value must exceed min_value ({min_value} -> {max_value})"
            )
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self.name = name
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(max_value / min_value)
        n_buckets = int(math.ceil(decades * buckets_per_decade)) + 1
        growth = 10.0 ** (1.0 / buckets_per_decade)
        # _boundaries[i] is the inclusive upper bound (Prometheus ``le``)
        # of bucket i; one extra overflow bucket catches values above the
        # last boundary.  Immutable after construction.
        self._boundaries: List[float] = (
            self.min_value * growth ** np.arange(n_buckets, dtype=np.float64)
        ).tolist()
        self._counts = [0] * (n_buckets + 1)
        self.count = 0
        self.sum = 0.0
        self.min_observed = 0.0
        self.max_observed = 0.0
        self._lock = threading.Lock()

    @property
    def relative_error(self) -> float:
        """Worst-case relative quantile error: one bucket's width."""
        return 10.0 ** (1.0 / self.buckets_per_decade) - 1.0

    def bucket_index(self, value: float) -> int:
        """Index of the bucket ``value`` lands in; the last index (the
        bucket count) is the overflow bucket."""
        return bisect_left(self._boundaries, float(value))

    def observe(self, value: float) -> None:
        value = float(value)
        idx = self.bucket_index(value)
        with self._lock:
            self._counts[idx] += 1
            self.count += 1
            self.sum += value
            if self.count == 1 or value < self.min_observed:
                self.min_observed = value
            if self.count == 1 or value > self.max_observed:
                self.max_observed = value

    def time(self) -> Timer:
        """Context manager: ``with h.time(): ...`` observes the lap."""
        return _HistogramTimer(self)

    def _snapshot(self) -> Tuple[np.ndarray, float, float, float]:
        """``(cumulative bucket counts, sum, min, max)`` from one lock
        hold; the last cumulative entry is the observation count."""
        with self._lock:
            counts = list(self._counts)
            moments = (self.sum, self.min_observed, self.max_observed)
        return (np.cumsum(np.asarray(counts, dtype=np.int64)), *moments)

    def _quantile(
        self, cumulative: np.ndarray, max_observed: float, p: float
    ) -> float:
        count = int(cumulative[-1])
        if count == 0:
            return 0.0
        rank = max(1, int(math.ceil(p / 100.0 * count)))
        idx = int(np.searchsorted(cumulative, rank, side="left"))
        if idx >= len(self._boundaries):
            return float(max_observed)
        return self._boundaries[idx]

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile as a bucket upper bound (0.0 if empty).

        The returned boundary is >= the exact ceil-rank quantile (the
        smallest value with at least ``ceil(p/100 * n)`` observations at
        or below it) and within one bucket of it —
        :attr:`relative_error` relative width, ~8 % at the default 30
        buckets per decade — at any observation count.  A quantile that
        falls in the overflow bucket reports the exact observed maximum;
        one at or below ``min_value`` reports ``min_value``.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        cumulative, _, _, max_observed = self._snapshot()
        return self._quantile(cumulative, max_observed, p)

    def _bucket_pairs(self, cumulative: np.ndarray) -> List[Tuple[float, int]]:
        finite = cumulative[:-1]
        finite_total = int(finite[-1])
        pairs: List[Tuple[float, int]] = []
        if finite_total > 0:
            first = int(np.argmax(finite > 0))
            last = int(np.searchsorted(finite, finite_total, side="left"))
            pairs = [
                (self._boundaries[i], int(finite[i])) for i in range(first, last + 1)
            ]
        pairs.append((math.inf, int(cumulative[-1])))
        return pairs

    def as_dict(self) -> Dict[str, object]:
        cumulative, total, min_observed, max_observed = self._snapshot()
        count = int(cumulative[-1])
        summary: Dict[str, object] = {
            "type": "histogram",
            "count": count,
            "sum": float(total),
            "mean": float(total / count) if count else 0.0,
            "min": float(min_observed),
            "max": float(max_observed),
            "relative_error": self.relative_error,
        }
        for p in self.PERCENTILES:
            summary[f"p{p:g}"] = self._quantile(cumulative, max_observed, p)
        summary["buckets"] = [
            [le if math.isfinite(le) else "+Inf", c]
            for le, c in self._bucket_pairs(cumulative)
        ]
        return summary


class MetricsRegistry:
    """Thread-safe get-or-create registry of named instruments.

    Names are unique across kinds: asking for a counter named like an
    existing gauge is a programming error and raises a :class:`TypeError`
    naming both the registered and the requested kind.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type, **kwargs):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name, **kwargs)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric name collision: {name!r} is already registered "
                    f"as a {type(instrument).__name__} and cannot also be a "
                    f"{kind.__name__}; pick a distinct name per instrument "
                    "kind"
                )
            return instrument

    def counter(self, name: str, source=None) -> Counter:
        """Get or create a counter; like a histogram's layout, a
        ``source`` only applies on creation."""
        return self._get(name, Counter, source=source)

    def gauge(self, name: str, source=None) -> Gauge:
        return self._get(name, Gauge, source=source)

    def histogram(
        self,
        name: str,
        min_value: float = 1e-6,
        max_value: float = 1e3,
        buckets_per_decade: int = 30,
    ) -> Histogram:
        """Get or create a histogram; the bucket layout only applies on
        creation (an existing instrument keeps its own)."""
        return self._get(
            name,
            Histogram,
            min_value=min_value,
            max_value=max_value,
            buckets_per_decade=buckets_per_decade,
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(sorted(self._instruments))

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Every instrument's summary, keyed by name (sorted)."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: instruments[name].as_dict() for name in sorted(instruments)}

    def to_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        """Serialise the registry; optionally also write it to ``path``."""
        payload = json.dumps(self.as_dict(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        return payload

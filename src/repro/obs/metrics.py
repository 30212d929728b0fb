"""The shared, thread-safe metrics registry.

Grown out of the serving layer's process-local registry so the
trainer, the execution engines, sampling and the serving stack all
report into one instrument namespace.  Three instrument kinds cover
everything the system reports:

* :class:`Counter` — monotonically increasing event counts
  (events ingested, cache hits, plan hops compiled, ...),
* :class:`Gauge` — point-in-time values with ``set``/``inc``/``dec``
  (queue depth, staleness, cache hit rate),
* :class:`Histogram` — latency/size distributions summarised as
  count/mean/p50/p95/p99/max.  **Bounded**: exact streaming moments
  (count, sum, sum of squares, max) plus a fixed-size reservoir for
  percentiles.  Below the reservoir capacity every sample is retained
  and percentiles are exact; beyond it, uniform reservoir sampling
  (Algorithm R) keeps memory constant under replay-scale load.  The
  reservoir RNG is a :mod:`repro.utils.rng` generator seeded
  deterministically from the instrument name, so summaries stay
  reproducible run to run.  For tail-accurate quantiles a
  :class:`~repro.obs.hdr.HdrHistogram` backend can be attached
  (``registry.histogram(name, hdr=True)``): observations are mirrored
  into exact log-spaced bucket counts and ``percentile(p >= 99)`` is
  answered from them instead of the reservoir.

Every mutating operation is lock-guarded — registry get-or-create and
instrument observe/inc/set — so ingest producers, the dispatcher thread
and concurrent readers can share one registry without lost updates.  The
registry renders to plain dictionaries / JSON so replay drivers and
benchmarks persist snapshots next to their tables; Prometheus text and
JSONL exposition live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import json
import threading
import zlib
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.obs.hdr import HdrHistogram
from repro.utils.rng import new_rng
from repro.utils.timer import Timer


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        with self._lock:
            self.value += amount

    def set(self, value: float) -> None:
        """Mirror an externally tracked cumulative total (monotone latch).

        The serving layer copies component-owned tallies into the
        registry this way from many threads, with no ordering between
        the read and the write — so an older reading may arrive after a
        newer one.  The counter keeps the larger value and drops the
        stale write: a mirror must never fail the call it reports on.
        """
        with self._lock:
            if value > self.value:
                self.value = value

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value that can move in either direction."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount`` (queue-depth style tracking)."""
        with self._lock:
            self.value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        with self._lock:
            self.value -= float(amount)

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            return {"type": "gauge", "value": self.value}


class _HistogramTimer(Timer):
    """A :class:`Timer` whose laps feed a histogram on exit."""

    def __init__(self, histogram: "Histogram"):
        super().__init__()
        self._histogram = histogram

    def __exit__(self, *exc_info) -> None:
        super().__exit__(*exc_info)
        self._histogram.observe(self.laps[-1])


class Histogram:
    """Bounded sample accumulator summarised as count/mean/p50/p95/p99/max.

    ``observe`` records raw values (the service records seconds);
    :meth:`time` returns a context manager that records one wall-clock
    lap per ``with`` block.  Count, mean and max are exact streaming
    moments; percentiles come from a reservoir of at most
    ``reservoir_size`` samples (exact until the reservoir fills).
    """

    PERCENTILES = (50.0, 95.0, 99.0)
    #: default reservoir capacity; large enough that every workload in
    #: the test/benchmark suites stays in the exact-percentile regime.
    DEFAULT_RESERVOIR_SIZE = 4096
    #: quantiles at or above this are routed to the attached HDR
    #: backend (when one exists), where they are bucket-exact.
    HDR_ROUTE_PERCENTILE = 99.0

    def __init__(
        self,
        name: str,
        reservoir_size: Optional[int] = None,
        hdr: Union[None, bool, HdrHistogram] = None,
    ):
        if reservoir_size is not None and reservoir_size < 1:
            raise ValueError(
                f"reservoir_size must be >= 1, got {reservoir_size}"
            )
        self.name = name
        self.reservoir_size = (
            self.DEFAULT_RESERVOIR_SIZE if reservoir_size is None else reservoir_size
        )
        # Optional tail-accurate backend: every observation is mirrored
        # into the HDR histogram, and high quantiles are answered from
        # its exact bucket counts instead of the reservoir.  ``True``
        # builds one with the default latency range.  Set only here so
        # the attribute is immutable after construction (no lock needed
        # to read it; HdrHistogram carries its own lock).
        if hdr is True:
            hdr = HdrHistogram(name)
        self.hdr: Optional[HdrHistogram] = hdr if hdr else None
        self.count = 0
        self.sum = 0.0
        self.sum_sq = 0.0
        self.max_value = 0.0
        self._samples: List[float] = []
        self._lock = threading.Lock()
        # Deterministic per-name reservoir stream (utils/rng discipline:
        # an explicit seeded Generator, never global numpy state).
        self._rng = new_rng(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        value = float(value)
        if self.hdr is not None:
            self.hdr.observe(value)
        with self._lock:
            self.count += 1
            self.sum += value
            self.sum_sq += value * value
            if self.count == 1 or value > self.max_value:
                self.max_value = value
            if len(self._samples) < self.reservoir_size:
                self._samples.append(value)
            else:
                # Algorithm R: keep each of the ``count`` samples seen so
                # far with probability reservoir_size / count.
                slot = int(self._rng.integers(self.count))
                if slot < self.reservoir_size:
                    self._samples[slot] = value

    def time(self) -> Timer:
        """Context manager: ``with h.time(): ...`` observes the lap."""
        return _HistogramTimer(self)

    @property
    def samples(self) -> List[float]:
        """The retained reservoir samples (a copy; at most
        ``reservoir_size`` of the ``count`` observed values)."""
        with self._lock:
            return list(self._samples)

    @property
    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0.0 if empty).

        Accuracy bound: percentiles come from a uniform reservoir of at
        most ``reservoir_size`` samples.  They are **exact** while
        ``count <= reservoir_size``; beyond that the reported quantile
        is an estimate whose rank error scales like
        ``sqrt(p/100 * (1 - p/100) / reservoir_size)`` — about ±0.16
        rank-percentile points at p50 with the default 4096-sample
        reservoir, but relatively much worse in the tail: at p99.9 only
        ~4 reservoir samples sit above the quantile, so the estimate is
        dominated by sampling noise.  When an HDR backend is attached
        (``hdr=`` at construction), quantiles at or above
        :data:`HDR_ROUTE_PERCENTILE` are answered from its exact bucket
        counts instead — correct to within one bucket
        (:attr:`~repro.obs.hdr.HdrHistogram.relative_error`) at any
        observation count.
        """
        if self.hdr is not None and p >= self.HDR_ROUTE_PERCENTILE:
            return self.hdr.percentile(p)
        with self._lock:
            if not self._samples:
                return 0.0
            data = np.asarray(self._samples, dtype=np.float64)
        return float(np.percentile(data, p))

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            count = self.count
            mean = self.sum / count if count else 0.0
            max_value = self.max_value if count else 0.0
            data = np.asarray(self._samples, dtype=np.float64)
        summary: Dict[str, object] = {
            "type": "histogram",
            "count": int(count),
            "mean": float(mean),
            "max": float(max_value),
        }
        for p in self.PERCENTILES:
            summary[f"p{p:g}"] = float(np.percentile(data, p)) if data.size else 0.0
        if self.hdr is not None:
            summary["hdr"] = self.hdr.as_dict()
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

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self,
        name: str,
        reservoir_size: Optional[int] = None,
        hdr: Union[None, bool, HdrHistogram] = None,
    ) -> Histogram:
        """Get or create a histogram; ``reservoir_size`` and ``hdr``
        only apply on creation (an existing instrument keeps its bound
        and backend)."""
        return self._get(name, Histogram, reservoir_size=reservoir_size, hdr=hdr)

    def hdr_histogram(
        self,
        name: str,
        min_value: float = 1e-6,
        max_value: float = 1e3,
        buckets_per_decade: int = 30,
    ) -> HdrHistogram:
        """Get or create a standalone log-bucketed HDR histogram
        (bucket layout only applies on creation)."""
        return self._get(
            name,
            HdrHistogram,
            min_value=min_value,
            max_value=max_value,
            buckets_per_decade=buckets_per_decade,
        )

    def get(self, name: str) -> Optional[object]:
        """The instrument registered under ``name``, if any."""
        with self._lock:
            return self._instruments.get(name)

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

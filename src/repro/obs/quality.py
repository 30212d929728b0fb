"""Online quality telemetry: streaming hold-out, cohorts, drift.

Offline evaluation (:mod:`repro.eval`) answers "how good was the model
on a frozen split"; a serving system also needs the *online* version of
that question — is ranking quality holding up right now, and for whom?
This module provides it without any labelled data, using the stream
itself as ground truth:

* **Streaming hold-out** — just before the service learns an
  interaction ``(u, v)``, :meth:`StreamingQualityEvaluator.observe_event`
  asks the live service for ``u``'s top-K and scores it against ``v``
  (the interaction the user is *about to* make).  This is the standard
  prequential ("test-then-train") protocol: every event is an unbiased
  test point because the model has not seen it yet.  Hits and
  reciprocal ranks feed cumulative and rolling-window gauges
  (``quality.hit_rate``, ``quality.mrr``, ``quality.window_hit_rate``,
  ``quality.window_mrr``), so drift in quality is visible at the
  interval the window spans.  Misses record a rank of ``inf``, which
  makes the cumulative gauges mathematically identical to the offline
  :func:`repro.eval.metrics.hit_rate` / :func:`~repro.eval.metrics.mrr`
  over the same per-event ranks — the parity the tests pin.
* **Cohorts by node age** — each evaluation is bucketed by how many
  interactions the *target item* had before the event (``cold`` = never
  seen, then ``warming``, then ``established``), giving the cold-start
  story a measured quality-by-age curve instead of an assumed one.
* **Embedding drift** — on every snapshot publish,
  :meth:`~StreamingQualityEvaluator.observe_publish` diffs the rows the
  update touched (``model.last_touched_nodes``) against a baseline copy
  of the served matrix and records the per-row L2 drift norms
  (``quality.drift_row_norm`` histogram, last-publish mean/max gauges).
  Work per publish is O(touched rows), not O(nodes).

The evaluator holds no reference to serve-layer types (it duck-types
the service: ``recommend``, ``ingest`` metrics registry,
``snapshot_version``, ``store.snapshot()``, ``model.last_touched_nodes``),
keeping ``repro.obs`` import-free of ``repro.serve``.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only; obs must not import serve
    from repro.graph.streams import StreamEdge
    from repro.serve.service import RecommendationService

#: default cohort boundaries: minimum prior interaction count → label.
DEFAULT_COHORTS = ((0, "cold"), (1, "warming"), (8, "established"))


@dataclass(frozen=True)
class QualityRecord:
    """One prequential evaluation: the served top-K scored against the
    interaction the user actually made next."""

    index: int
    user: int
    item: int
    rank: float  # 1-based position of the item in the served top-K; inf = miss
    k: int
    cohort: str
    item_age: int  # the item's interaction count before this event

    @property
    def hit(self) -> bool:
        return self.rank <= self.k

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "user": self.user,
            "item": self.item,
            "rank": self.rank if math.isfinite(self.rank) else "miss",
            "k": self.k,
            "cohort": self.cohort,
            "item_age": self.item_age,
            "hit": self.hit,
        }


class StreamingQualityEvaluator:
    """Prequential quality + drift telemetry for a live service.

    Thread-safe: one lock guards the counters, windows, cohort stats,
    retained records and the drift baseline.  Service calls (the top-K
    query, snapshot reads) always happen outside the lock — the service
    is an injected collaborator (hold-and-call discipline) and itself
    takes snapshot/index locks.
    """

    def __init__(
        self,
        service: "RecommendationService",
        k: int = 10,
        window: int = 512,
        cohorts: Sequence[Tuple[int, str]] = DEFAULT_COHORTS,
        max_records: int = 100_000,
        track_drift: bool = True,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not cohorts or cohorts[0][0] != 0:
            raise ValueError(
                f"cohorts must start at age 0, got {cohorts!r}"
            )
        if list(c[0] for c in cohorts) != sorted(set(c[0] for c in cohorts)):
            raise ValueError(
                f"cohort boundaries must be strictly increasing, got {cohorts!r}"
            )
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self.service = service
        self.k = int(k)
        self.window = int(window)
        self.cohorts = tuple((int(age), str(label)) for age, label in cohorts)
        self.max_records = int(max_records)
        self.track_drift = bool(track_drift)
        self._lock = threading.Lock()
        self._seen: Dict[int, int] = {}
        self._window_hits: Deque[float] = deque()
        self._window_rr: Deque[float] = deque()
        self._evaluated = 0
        self._hits = 0
        self._rr_sum = 0.0
        self._records: List[QualityRecord] = []
        self._cohort_evaluated: Dict[str, int] = {
            label: 0 for _, label in self.cohorts
        }
        self._cohort_hits: Dict[str, int] = {label: 0 for _, label in self.cohorts}
        self._baseline: Optional[np.ndarray] = None
        self._last_version = int(service.snapshot_version)
        if self.track_drift:
            self._baseline = np.array(
                service.store.snapshot().matrix(), dtype=np.float64, copy=True
            )
        registry = service.metrics
        for name in ("quality.evaluated", "quality.hits", "quality.publishes"):
            registry.counter(name)
        for name in (
            "quality.hit_rate",
            "quality.mrr",
            "quality.window_hit_rate",
            "quality.window_mrr",
            "quality.drift.last_mean",
            "quality.drift.last_max",
        ):
            registry.gauge(name)
        registry.histogram("quality.drift_row_norm")
        for _, label in self.cohorts:
            registry.counter(f"quality.cohort.{label}.evaluated")
            registry.counter(f"quality.cohort.{label}.hits")
            registry.gauge(f"quality.cohort.{label}.hit_rate")

    def _cohort_of(self, age: int) -> str:
        label = self.cohorts[0][1]
        for bound, name in self.cohorts:
            if age >= bound:
                label = name
        return label

    # ------------------------------------------------------- prequential scoring

    def observe_event(self, edge: "StreamEdge") -> QualityRecord:
        """Score the served top-K against ``edge`` *before* ingesting it.

        Call order matters: the event must not yet have been offered to
        the service, otherwise the model may already have learned the
        very interaction it is being tested on.
        """
        u, v = int(edge.u), int(edge.v)
        items = self.service.recommend(u, self.k)  # outside the lock
        position = np.flatnonzero(np.asarray(items) == v)
        rank = float(position[0] + 1) if position.size else math.inf
        hit = rank <= self.k
        rr = 1.0 / rank if math.isfinite(rank) else 0.0
        with self._lock:
            age = self._seen.get(v, 0)
            cohort = self._cohort_of(age)
            index = self._evaluated
            self._evaluated += 1
            self._hits += int(hit)
            self._rr_sum += rr
            self._window_hits.append(float(hit))
            self._window_rr.append(rr)
            while len(self._window_hits) > self.window:
                self._window_hits.popleft()
                self._window_rr.popleft()
            self._cohort_evaluated[cohort] += 1
            self._cohort_hits[cohort] += int(hit)
            record = QualityRecord(
                index=index,
                user=u,
                item=v,
                rank=rank,
                k=self.k,
                cohort=cohort,
                item_age=age,
            )
            if len(self._records) < self.max_records:
                self._records.append(record)
            # Both endpoints aged: the interaction is now history.
            self._seen[u] = self._seen.get(u, 0) + 1
            self._seen[v] = age + 1
            evaluated = self._evaluated
            hits = self._hits
            rr_sum = self._rr_sum
            window_hits = sum(self._window_hits)
            window_rr = sum(self._window_rr)
            window_n = len(self._window_hits)
            cohort_counts = {
                label: (self._cohort_evaluated[label], self._cohort_hits[label])
                for _, label in self.cohorts
            }
        registry = self.service.metrics
        registry.counter("quality.evaluated").set(evaluated)
        registry.counter("quality.hits").set(hits)
        registry.gauge("quality.hit_rate").set(hits / evaluated)
        registry.gauge("quality.mrr").set(rr_sum / evaluated)
        registry.gauge("quality.window_hit_rate").set(window_hits / window_n)
        registry.gauge("quality.window_mrr").set(window_rr / window_n)
        for label, (n, h) in cohort_counts.items():
            registry.counter(f"quality.cohort.{label}.evaluated").set(n)
            registry.counter(f"quality.cohort.{label}.hits").set(h)
            if n:
                registry.gauge(f"quality.cohort.{label}.hit_rate").set(h / n)
        return record

    # ------------------------------------------------------------ drift tracking

    def observe_publish(self) -> Optional[Dict[str, float]]:
        """Record drift norms if a new snapshot was published.

        Returns ``{"rows", "mean", "max"}`` for the publish (or ``None``
        when the version is unchanged or drift tracking is off).
        """
        if not self.track_drift:
            return None
        version = int(self.service.snapshot_version)
        with self._lock:
            changed = version != self._last_version
            self._last_version = version
        if not changed:
            return None
        rows = np.asarray(self.service.model.last_touched_nodes, dtype=np.int64)
        if rows.size == 0:
            return None
        fresh = np.asarray(
            self.service.store.snapshot().rows(rows), dtype=np.float64
        )
        with self._lock:
            previous = self._baseline[rows].copy()
            self._baseline[rows] = fresh
        norms = np.linalg.norm(fresh - previous, axis=1)
        registry = self.service.metrics
        histogram = registry.histogram("quality.drift_row_norm")
        for norm in norms:
            histogram.observe(float(norm))
        registry.counter("quality.publishes").inc()
        summary = {
            "rows": float(rows.size),
            "mean": float(norms.mean()),
            "max": float(norms.max()),
        }
        registry.gauge("quality.drift.last_mean").set(summary["mean"])
        registry.gauge("quality.drift.last_max").set(summary["max"])
        return summary

    # ------------------------------------------------------------------ summary

    @property
    def records(self) -> List[QualityRecord]:
        """The retained per-event evaluations (a copy)."""
        with self._lock:
            return list(self._records)

    def ranks(self) -> List[float]:
        """Per-event 1-based ranks (``inf`` = miss), offline-metric ready:
        feeding these to :func:`repro.eval.metrics.hit_rate` /
        :func:`~repro.eval.metrics.mrr` reproduces the cumulative gauges
        exactly."""
        with self._lock:
            return [r.rank for r in self._records]

    def summary(self) -> Dict[str, object]:
        with self._lock:
            evaluated = self._evaluated
            hits = self._hits
            rr_sum = self._rr_sum
            cohort = {
                label: {
                    "evaluated": self._cohort_evaluated[label],
                    "hits": self._cohort_hits[label],
                    "hit_rate": (
                        self._cohort_hits[label] / self._cohort_evaluated[label]
                        if self._cohort_evaluated[label]
                        else 0.0
                    ),
                }
                for _, label in self.cohorts
            }
        return {
            "evaluated": evaluated,
            "hits": hits,
            "hit_rate": hits / evaluated if evaluated else 0.0,
            "mrr": rr_sum / evaluated if evaluated else 0.0,
            "k": self.k,
            "cohorts": cohort,
        }

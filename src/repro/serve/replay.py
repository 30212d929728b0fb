"""Deterministic stream replay through the online serving layer.

The driver feeds any :mod:`repro.datasets.zoo` dataset's chronological
edge stream through a :class:`RecommendationService` exactly as a live
platform would — interleaving ``ingest`` with periodic ``recommend``
probes — then quiesces with ``flush()`` and checks **parity**: the
served top-K list of every user must equal the offline ranking
pipeline's answer (Eq. 15 over the full catalogue, identical stable
tie-breaking).

The resulting :class:`ReplayReport` carries throughput (events/s in,
recommendations/s out), latency percentiles, cache hit-rate, staleness
and the parity fraction, and serialises to JSON.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig
from repro.core.model import SUPA
from repro.datasets.base import Dataset
from repro.serve.service import RecommendationService, ServeConfig
from repro.utils.timer import Timer


def parity_matches(
    service: RecommendationService,
    users: Iterable[int],
    k: int,
    golden: Optional[RecommendationService] = None,
) -> int:
    """How many of ``users`` are served exactly the offline ranking.

    A user matches when ``service``'s served top-``k`` equals its own
    brute-force ``offline_top_k`` — and, given a ``golden`` service,
    that service's served list as well.
    """
    matches = 0
    for user in users:
        served = service.recommend(int(user), k)
        if np.array_equal(served, service.offline_top_k(int(user), k)) and (
            golden is None
            or np.array_equal(served, golden.recommend(int(user), k))
        ):
            matches += 1
    return matches


@dataclass
class ReplayReport:
    """Everything one replay run measured."""

    dataset: str
    k: int
    num_events: int
    events_accepted: int
    events_rejected: int
    num_updates: int
    ingest_seconds: float
    events_per_second: float
    num_recommends: int
    recommends_per_second: float
    recommend_p50_ms: float
    recommend_p95_ms: float
    recommend_p99_ms: float
    update_p95_ms: float
    cache_hit_rate: float
    max_staleness_events: float
    parity_users: int
    parity_matches: int
    parity_fraction: float
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict, repr=False)
    #: aggregated span tree (``tracer.as_dict()``) when the replay ran
    #: with tracing; empty otherwise.
    trace: Dict[str, object] = field(default_factory=dict, repr=False)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready payload (full metrics registry included; the span
        tree only when the replay was traced)."""
        payload = asdict(self)
        if not self.trace:
            del payload["trace"]
        return payload

    def write_json(self, path: str) -> str:
        """Persist the report; creates parent directories. Returns path."""
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def summary_rows(self) -> List[Tuple[str, object]]:
        """(name, value) pairs for a printed summary table."""
        return [
            ("dataset", self.dataset),
            ("events replayed", self.num_events),
            ("events accepted", self.events_accepted),
            ("updates applied", self.num_updates),
            ("events / s", round(self.events_per_second, 1)),
            ("recommendations", self.num_recommends),
            ("recommendations / s", round(self.recommends_per_second, 1)),
            ("recommend p50 (ms)", round(self.recommend_p50_ms, 3)),
            ("recommend p95 (ms)", round(self.recommend_p95_ms, 3)),
            ("recommend p99 (ms)", round(self.recommend_p99_ms, 3)),
            ("update p95 (ms)", round(self.update_p95_ms, 1)),
            ("cache hit rate", round(self.cache_hit_rate, 3)),
            ("max staleness (events)", self.max_staleness_events),
            (f"top-{self.k} parity", f"{self.parity_matches}/{self.parity_users}"),
            ("parity fraction", round(self.parity_fraction, 4)),
        ]


class StreamReplayDriver:
    """Replays a dataset's stream through a fresh serving stack.

    Parameters
    ----------
    dataset:
        The :class:`Dataset` whose chronological stream is replayed.
    k:
        List length for probes and the final parity check.
    serve_config / model_config / train_config:
        Forwarded to the service; defaults are CPU-light so a full
        replay finishes in seconds.
    probe_every / probes_per_checkpoint:
        Issue ``probes_per_checkpoint`` recommendations (rotating
        deterministically through the user catalogue) every
        ``probe_every`` ingested events — serving pressure while
        updates run.
    max_parity_users:
        Cap on users checked for offline parity (evenly spaced
        subsample, at least 1); ``None`` checks every user.
    trace:
        Record ``repro.obs`` spans during the replay; the span tree
        lands on ``ReplayReport.trace`` (and the service's tracer stays
        reachable as ``service.tracer`` for text rendering).
    """

    def __init__(
        self,
        dataset: Dataset,
        k: int = 10,
        serve_config: Optional[ServeConfig] = None,
        model_config: Optional[SUPAConfig] = None,
        train_config: Optional[InsLearnConfig] = None,
        probe_every: int = 64,
        probes_per_checkpoint: int = 4,
        max_parity_users: Optional[int] = None,
        seed: int = 0,
        trace: bool = False,
    ):
        if probe_every < 1:
            raise ValueError(f"probe_every must be >= 1, got {probe_every}")
        if max_parity_users is not None and max_parity_users < 1:
            # zero users would pass any --min-parity gate unchecked
            raise ValueError(
                f"max_parity_users must be >= 1 when set, got {max_parity_users}"
            )
        self.trace = trace
        self.dataset = dataset
        self.k = k
        self.serve_config = serve_config or ServeConfig(batch_size=256)
        self.model_config = model_config or SUPAConfig(
            dim=32, num_walks=2, walk_length=2, seed=seed
        )
        self.train_config = train_config or InsLearnConfig(
            batch_size=self.serve_config.batch_size,
            max_iterations=2,
            validation_interval=1,
            validation_size=25,
            patience=1,
            seed=seed,
        )
        self.probe_every = probe_every
        self.probes_per_checkpoint = probes_per_checkpoint
        self.max_parity_users = max_parity_users

    def build_service(self) -> RecommendationService:
        """A fresh service over a fresh model (deterministic per seed)."""
        model = SUPA.for_dataset(self.dataset, self.model_config)
        return RecommendationService(
            self.dataset,
            model=model,
            config=self.serve_config,
            train_config=self.train_config,
            trace=self.trace,
        )

    def _parity_users(self, service: RecommendationService) -> np.ndarray:
        users = service.users
        cap = self.max_parity_users
        if cap is None or users.size <= cap:
            return users
        picks = np.linspace(0, users.size - 1, cap).astype(np.int64)
        return users[picks]

    def _parity(self, service: RecommendationService) -> Dict[str, object]:
        """The report's three parity fields, over the parity-user subsample."""
        users = self._parity_users(service)
        matches = parity_matches(service, users, self.k)
        return {
            "parity_users": int(users.size),
            "parity_matches": matches,
            "parity_fraction": matches / users.size if users.size else 1.0,
        }

    def run(self, service: Optional[RecommendationService] = None) -> ReplayReport:
        """Replay the full stream (ingest, probe, then flush); returns the
        measured report."""
        service = service or self.build_service()
        users = service.users
        probe_cursor = 0
        max_staleness = 0.0
        timer = Timer()
        with timer:
            for position, edge in enumerate(self.dataset.stream):
                service.ingest(edge)
                if (position + 1) % self.probe_every == 0:
                    for _ in range(self.probes_per_checkpoint):
                        user = int(users[probe_cursor % users.size])
                        probe_cursor += 1
                        service.recommend(user, self.k)
                    max_staleness = max(
                        max_staleness,
                        service.metrics.gauge("staleness.events_behind").value,
                    )
            service.flush()
        ingest_seconds = timer.elapsed
        num_events = len(self.dataset.stream)

        latency = service.metrics.histogram("latency.recommend_seconds")
        update_latency = service.metrics.histogram("latency.update_seconds")
        recommend_seconds = float(latency.sum) if latency.count else 0.0
        return ReplayReport(
            dataset=self.dataset.name,
            k=self.k,
            num_events=num_events,
            events_accepted=service.queue.accepted,
            events_rejected=service.queue.rejected,
            num_updates=int(service.metrics.counter("updates.applied").value),
            ingest_seconds=ingest_seconds,
            events_per_second=(
                num_events / ingest_seconds if ingest_seconds else 0.0
            ),
            num_recommends=latency.count,
            recommends_per_second=(
                latency.count / recommend_seconds if recommend_seconds else 0.0
            ),
            recommend_p50_ms=latency.percentile(50.0) * 1e3,
            recommend_p95_ms=latency.percentile(95.0) * 1e3,
            recommend_p99_ms=latency.percentile(99.0) * 1e3,
            update_p95_ms=update_latency.percentile(95.0) * 1e3,
            cache_hit_rate=service.index.hit_rate,
            max_staleness_events=max_staleness,
            metrics=service.metrics.as_dict(),
            trace=service.tracer.as_dict() if service.tracer.enabled else {},
            # last: its parity reads must not land in the figures above
            **self._parity(service),
        )

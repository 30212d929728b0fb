"""Online recommendation serving over the live-learning SUPA model.

The paper's InsLearn premise is that the model "stays deployable on the
live platform while it learns"; this package is that deployment story:

* :mod:`repro.serve.ingest` — bounded event queue with micro-batching,
  backpressure and a deadletter policy;
* :mod:`repro.serve.admission` — admission control in front of the
  queue: per-user token-bucket rate limiting, and overload watermarks
  with hysteresis that reject new events while shedding;
* :mod:`repro.serve.dispatch` — the async dispatcher thread that drains
  micro-batches so ``ingest()`` returns after the journaled accept;
* :mod:`repro.serve.store` — copy-on-write versioned snapshots of the
  time-free Eq. 14 components (readers pin a version; updates publish
  touched rows atomically); a snapshot reads Eq. 14 at its own clock;
* :mod:`repro.serve.index` — cached top-K retrieval; an entry serves
  only its snapshot version, and every publish clears the cache;
* :mod:`repro.serve.service` — the :class:`RecommendationService`
  façade (``ingest`` / ``recommend`` / ``flush``);
* :mod:`repro.obs.metrics` — the counters, gauges and latency
  histograms the service registers (``MetricsRegistry`` is re-exported
  here).

``repro serve-replay`` drives the service directly; its parity check is
:func:`repro.replicate.failover.parity_matches`.
"""

from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.dispatch import DispatchWorker
from repro.serve.index import TopKIndex
from repro.serve.ingest import BackpressureError, DeadLetter, EventQueue
from repro.serve.service import QueryResult, RecommendationService, ServeConfig
from repro.serve.store import (
    DecayedEmbeddingStore,
    DecayedSnapshot,
    Snapshot,
    VersionedEmbeddingStore,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "BackpressureError",
    "DeadLetter",
    "DecayedEmbeddingStore",
    "DecayedSnapshot",
    "DispatchWorker",
    "EventQueue",
    "MetricsRegistry",
    "QueryResult",
    "RecommendationService",
    "ServeConfig",
    "Snapshot",
    "TopKIndex",
    "VersionedEmbeddingStore",
]

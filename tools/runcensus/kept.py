"""The defs the run census spares although no entrypoint enters them.

Each row is ``"path::qualname": (kind, reason)``, the path relative to
``src/repro``.  The kinds are fixed: a def that fits none of them is API
only tests run, and it goes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from runcensus.census import Site, stale_keys

KINDS = {
    "error-path": "runs only when something fails",
    "input-shape": "runs only on an input shape no workload produces",
    "no-workload": "its trigger exists, but no workload drives it yet",
    "spine-bound": "the benchmark spine binds it by name",
    "abstract": "an interface declaration; subclasses supply the body",
    "oracle": "the tests' oracle reaches it through a kept fallback",
    "metric-source": "a gauge reads it",
}

_BREAKER = "the service's circuit breaker: runs when an update or dispatch fails"
_DROP_OLDEST = "goes with overflow='drop_oldest' (ROADMAP item 7)"
_OVERLOAD = "no workload overloads admission (ROADMAP item 11)"

KEPT: Dict[str, Tuple[str, str]] = {
    "serve/service.py::RecommendationService._register_dispatch_failure": ("error-path", _BREAKER),
    "serve/service.py::RecommendationService._register_update_failure": ("error-path", _BREAKER),
    "serve/service.py::RecommendationService._count_failure": ("error-path", _BREAKER),
    "serve/service.py::RecommendationService._probe_breaker": ("error-path", _BREAKER),
    "serve/ingest.py::EventQueue.pause": (
        "error-path", "the breaker pauses the queue while it is open"),
    "serve/ingest.py::EventQueue.resume": (
        "error-path", "the breaker resumes the queue when a probe succeeds"),
    "serve/ingest.py::EventQueue.dead_letter": (
        "error-path", "records an edge whose update failed past its retries"),
    "obs/metrics.py::_sourced": (
        "error-path", "builds the TypeError for a gauge read on a bad source"),
    "resilience/wal.py::_count_lines": (
        "error-path", "counts the lines of a torn WAL tail to report it"),
    "core/engine/kernels.py::accumulate_rows": (
        "input-shape", "a self-loop edge makes both endpoints one row"),
    "resilience/wal.py::WriteAheadLog.append_shed": ("no-workload", _OVERLOAD),
    "resilience/wal.py::WriteAheadLog.append_throttle": ("no-workload", _OVERLOAD),
    "serve/ingest.py::EventQueue._evict_head": ("no-workload", _DROP_OLDEST),
    "resilience/wal.py::WriteAheadLog.append_evict": ("no-workload", _DROP_OLDEST),
    "serve/store.py::VersionedEmbeddingStore.publish_parts": (
        "spine-bound", "the spine's probes wrap it by name"),
    "baselines/base.py::BaselineModel.fit": ("abstract", "every baseline overrides it"),
    "baselines/base.py::BaselineModel.score": ("abstract", "every baseline overrides it"),
    "eval/ranking.py::Scorer.score": ("abstract", "the protocol the evaluator ranks with"),
    "core/config.py::g_decay_derivative": (
        "oracle", "tests/oracle reaches it through the target_backward fallback"),
    "resilience/wal.py::WalTailer.backlog_bytes": (
        "metric-source", "the follower's replica.backlog_bytes gauge reads it"),
}


def kept_problems(defs: Iterable[Site], kept: Mapping[str, Tuple[str, str]] = KEPT) -> List[str]:
    """A row that names no def (a rename left it behind), or one without
    a kind from :data:`KINDS` and a reason."""
    problems = [f"KEPT row names no def: {key}" for key in stale_keys(defs, kept)]
    for key, (kind, reason) in sorted(kept.items()):
        if kind not in KINDS or not reason.strip():
            problems.append(f"KEPT row needs a kind from {sorted(KINDS)} and a reason: {key}")
    return problems

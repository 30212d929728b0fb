"""End-to-end replay: zoo stream → serving stack → offline parity.

A plain :class:`RecommendationService` ingests a zoo dataset's stream
with interleaved ``recommend`` probes, then quiesces with ``flush()``.
Its served top-K must then equal the offline ranking pipeline (the
model's Eq. 15 ``score`` over the full catalogue with stable
tie-breaking — exactly what ``eval/ranking.py`` computes ranks from)."""

import itertools

import numpy as np
import pytest

from repro.core import SUPA, SUPAConfig
from repro.datasets.zoo import load_dataset
from repro.replicate.failover import parity_matches, state_fingerprint
from repro.serve.service import RecommendationService, ServeConfig

K = 5


def replay(dataset, seed, probe_every, k=K, **serve):
    """Ingest ``dataset``'s stream, four probes every ``probe_every``
    events, then flush; returns the quiesced service."""
    service = RecommendationService(
        dataset,
        model=SUPA.for_dataset(
            dataset, SUPAConfig(dim=32, num_walks=2, walk_length=2, seed=seed)
        ),
        config=ServeConfig(batch_size=64, capacity=512, **serve),
    )
    probes = itertools.cycle(service.users)
    for position, edge in enumerate(dataset.stream, 1):
        service.ingest(edge)
        if position % probe_every == 0:
            for _ in range(4):
                service.recommend(int(next(probes)), k)
    service.flush()
    return service


@pytest.fixture(scope="module")
def replayed():
    """One small replay shared by every assertion in this module."""
    dataset = load_dataset("lastfm", scale=0.05, seed=3)
    return dataset, replay(dataset, seed=3, probe_every=32, cache_size=64)


class TestReplay:
    def test_stream_fully_replayed(self, replayed):
        dataset, service = replayed
        assert service.queue.accepted == len(dataset.stream)
        assert service.queue.rejected == 0
        assert service.queue.pending == 0  # quiesced
        assert service.updates_applied >= 1
        assert service.updates_applied == service.snapshot_version

    def test_parity_meets_acceptance_threshold(self, replayed):
        _, service = replayed
        assert parity_matches(service, service.users, K) == service.users.size

    def test_served_matches_offline_ranking_scoring(self, replayed):
        """Recompute offline the way eval/ranking.py scores: the model's
        ``score`` over the catalogue, ranked by stable descending sort."""
        _, service = replayed
        items = service.items
        for user in service.users[:: max(1, service.users.size // 8)]:
            scores = np.asarray(
                service.model.score(
                    int(user), items, service.edge_type, service.clock
                ),
                dtype=np.float64,
            )
            offline = items[np.argsort(-scores, kind="stable")[:K]]
            np.testing.assert_array_equal(service.recommend(int(user), K), offline)

    def test_throughput_and_latency_metrics_populated(self, replayed):
        """The registry holds every figure a replay reports."""
        _, service = replayed
        metrics = service.metrics.as_dict()
        assert metrics["latency.recommend_seconds"]["count"] > 0
        assert metrics["latency.update_seconds"]["count"] == service.updates_applied
        assert metrics["updates.applied"]["value"] == service.updates_applied
        assert metrics["ingest.accepted"]["value"] == service.queue.accepted
        assert 0.0 <= service.stats()["cache_hit_rate"] <= 1.0


class TestDeterminism:
    def test_same_seed_same_answers(self):
        dataset = load_dataset("uci", scale=0.05, seed=9)
        a, b = (replay(dataset, seed=9, probe_every=50, k=4) for _ in range(2))
        assert state_fingerprint(a) == state_fingerprint(b)
        for user in a.users:
            np.testing.assert_array_equal(
                a.recommend(int(user), 4), b.recommend(int(user), 4)
            )

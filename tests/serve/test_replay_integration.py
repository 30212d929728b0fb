"""End-to-end replay: zoo stream → serving stack → offline parity.

The served top-K after ``flush()`` must equal the offline ranking
pipeline (the model's Eq. 15 ``score`` over the full catalogue with
stable tie-breaking — exactly what ``eval/ranking.py`` computes ranks
from)."""

import json

import numpy as np
import pytest

from repro.core import SUPAConfig
from repro.datasets.zoo import load_dataset
from repro.serve.replay import StreamReplayDriver
from repro.serve.service import ServeConfig


@pytest.fixture(scope="module")
def replay_result():
    """One small replay shared by every assertion in this module."""
    dataset = load_dataset("lastfm", scale=0.05, seed=3)
    driver = StreamReplayDriver(
        dataset,
        k=5,
        serve_config=ServeConfig(batch_size=64, capacity=512, cache_size=64),
        probe_every=32,
        seed=3,
    )
    service = driver.build_service()
    report = driver.run(service)
    return dataset, service, report


class TestReplay:
    def test_stream_fully_replayed(self, replay_result):
        dataset, service, report = replay_result
        assert report.num_events == len(dataset.stream)
        assert report.events_accepted == report.num_events
        assert report.events_rejected == 0
        assert service.queue.pending == 0  # quiesced
        assert report.num_updates >= 1
        assert report.num_updates == service.snapshot_version

    def test_parity_meets_acceptance_threshold(self, replay_result):
        _, _, report = replay_result
        assert report.parity_users > 0
        assert report.parity_fraction >= 0.99

    def test_served_matches_offline_ranking_scoring(self, replay_result):
        """Recompute offline the way eval/ranking.py scores: the model's
        ``score`` over the catalogue, ranked by stable descending sort."""
        dataset, service, report = replay_result
        items = service.items
        for user in service.users[:: max(1, service.users.size // 8)]:
            scores = np.asarray(
                service.model.score(
                    int(user), items, service.edge_type, service.clock
                ),
                dtype=np.float64,
            )
            offline = items[np.argsort(-scores, kind="stable")[: report.k]]
            np.testing.assert_array_equal(
                service.recommend(int(user), report.k), offline
            )

    def test_throughput_and_latency_metrics_populated(self, replay_result):
        _, _, report = replay_result
        assert report.ingest_seconds > 0.0
        assert report.events_per_second > 0.0
        assert report.num_recommends > 0
        assert report.recommend_p95_ms >= report.recommend_p50_ms >= 0.0
        assert report.recommend_p99_ms >= report.recommend_p95_ms
        assert report.update_p95_ms > 0.0
        assert 0.0 <= report.cache_hit_rate <= 1.0
        assert report.max_staleness_events >= 0.0
        assert report.metrics["updates.applied"]["value"] == report.num_updates
        assert report.metrics["latency.update_seconds"]["count"] >= 1

    def test_report_roundtrips_to_json(self, replay_result, tmp_path):
        _, _, report = replay_result
        path = report.write_json(str(tmp_path / "nested" / "replay.json"))
        payload = json.loads(open(path, encoding="utf-8").read())
        assert payload["dataset"] == "lastfm"
        assert payload["parity_fraction"] == report.parity_fraction
        assert "metrics" in payload
        # the summary table covers the headline numbers
        names = [name for name, _ in report.summary_rows()]
        assert "parity fraction" in names and "events / s" in names


class TestParityUsers:
    @pytest.mark.parametrize("cap", [0, -3])
    def test_a_cap_below_one_user_is_refused(self, cap):
        """Zero users would report parity 1.0 and pass any --min-parity;
        a negative cap would crash inside ``np.linspace``."""
        dataset = load_dataset("uci", scale=0.05, seed=0)
        with pytest.raises(ValueError, match="max_parity_users"):
            StreamReplayDriver(dataset, max_parity_users=cap)

    def test_a_cap_of_one_checks_one_user(self):
        dataset = load_dataset("uci", scale=0.05, seed=0)
        driver = StreamReplayDriver(
            dataset,
            serve_config=ServeConfig(batch_size=64, capacity=512),
            model_config=SUPAConfig(dim=8, num_walks=2, walk_length=2, seed=0),
            max_parity_users=1,
        )
        report = driver.run()
        assert report.parity_users == 1 and report.parity_matches == 1


class TestDeterminism:
    def test_same_seed_same_answers(self):
        dataset = load_dataset("uci", scale=0.05, seed=9)
        reports = []
        for _ in range(2):
            driver = StreamReplayDriver(
                dataset,
                k=4,
                serve_config=ServeConfig(batch_size=64, capacity=512),
                probe_every=50,
                seed=9,
            )
            reports.append(driver.run())
        a, b = reports
        assert a.parity_fraction == b.parity_fraction
        assert a.num_updates == b.num_updates
        assert a.events_accepted == b.events_accepted

"""Tests for the RecommendationService façade.

Covers the serving consistency model: snapshot isolation while an
update is mid-flight, cache invalidation on publish, deadlettering of
malformed events, and exact offline parity once quiesced.
"""

import json
import math
import sys
import threading

import numpy as np
import pytest

from repro.graph.streams import StreamEdge
from repro.serve.service import RecommendationService, ServeConfig
from tests.serve import full_matrix


def make_service(dataset, **kwargs):
    defaults = dict(batch_size=4, capacity=16, cache_size=32)
    defaults.update(kwargs)
    return RecommendationService(dataset, config=ServeConfig(**defaults))


def stream_edges(dataset):
    return list(dataset.stream)


class TestConfig:
    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            ServeConfig(batch_size=0)

    def test_rejects_capacity_below_batch(self):
        with pytest.raises(ValueError):
            ServeConfig(batch_size=8, capacity=4)

    def test_rejects_negative_cache_size(self):
        """A negative size once ran cacheless, silently, like 0."""
        with pytest.raises(ValueError, match="cache_size must be >= 0"):
            ServeConfig(cache_size=-4)
        assert ServeConfig(cache_size=0).cache_size == 0

    def test_edge_type_resolution(self, small_dataset):
        """The dataset's first target relation, else its first schema one."""
        assert make_service(small_dataset).edge_type == "click"
        small_dataset.target_edge_types = ["like"]
        assert make_service(small_dataset).edge_type == "like"


class TestDeadletter:
    def test_malformed_events_are_rejected_with_reasons(self, small_dataset):
        svc = make_service(small_dataset)
        bad = [
            StreamEdge(0, 99, "click", 1.0),  # node outside universe
            StreamEdge(0, 5, "purchase", 1.0),  # unknown edge type
            StreamEdge(0, 5, "click", math.nan),  # non-finite timestamp
        ]
        for e in bad:
            assert not svc.ingest(e)
        assert svc.queue.rejected == 3
        assert len(svc.deadletters) == 3
        reasons = [d.reason for d in svc.deadletters]
        assert any("universe" in r for r in reasons)
        assert any("edge type" in r for r in reasons)
        assert any("timestamp" in r for r in reasons)
        assert svc.metrics.counter("ingest.rejected").value == 3
        # nothing reached the model
        assert svc.snapshot_version == 0 and svc.queue.pending == 0


class TestUpdateLoop:
    def test_full_batch_triggers_update_and_publish(self, small_dataset):
        svc = make_service(small_dataset)
        edges = stream_edges(small_dataset)
        for e in edges[:3]:
            assert svc.ingest(e)
        assert svc.snapshot_version == 0  # batch not full yet
        assert svc.ingest(edges[3])
        assert svc.snapshot_version == 1
        assert svc.clock == edges[3].t
        assert svc.metrics.counter("updates.applied").value == 1
        assert svc.metrics.histogram("latency.update_seconds").count == 1

    def test_flush_drains_partial_batch(self, small_dataset):
        svc = make_service(small_dataset)
        edges = stream_edges(small_dataset)
        for e in edges[:2]:
            svc.ingest(e)
        assert svc.flush() == 2
        assert svc.queue.pending == 0
        assert svc.snapshot_version == 1

    def test_updates_republish_touched_rows(self, small_dataset):
        svc = make_service(small_dataset)
        before = full_matrix(svc.store.snapshot())
        for e in stream_edges(small_dataset):
            svc.ingest(e)
        svc.flush()
        after = full_matrix(svc.store.snapshot())
        assert not np.array_equal(before, after)


class TestSnapshotIsolation:
    def test_reads_mid_update_serve_previous_version(self, small_dataset):
        """recommend() during a training step answers from the *last
        published* snapshot — never a half-applied update — and counts
        as a stale serve."""
        svc = make_service(small_dataset)
        baseline = svc.recommend(0, k=3).copy()
        observed = {}
        original = svc.trainer.train_one_batch

        def spy(batch, batch_index=0):
            observed["version"] = svc.snapshot_version
            observed["items"] = svc.recommend(0, k=3).copy()
            observed["stale"] = svc.metrics.counter("serve.stale_serves").value
            observed["behind"] = svc.metrics.gauge("staleness.events_behind").value
            return original(batch, batch_index=batch_index)

        svc.trainer.train_one_batch = spy
        for e in stream_edges(small_dataset)[:4]:
            svc.ingest(e)
        assert observed["version"] == 0  # pinned pre-update snapshot
        np.testing.assert_array_equal(observed["items"], baseline)
        assert observed["stale"] == 1
        assert observed["behind"] >= svc.config.batch_size
        assert svc.snapshot_version == 1
        # once published, staleness clears on the next quiesced serve
        svc.recommend(0, k=3)
        assert svc.metrics.gauge("staleness.events_behind").value == 0.0


    def test_query_reports_the_version_its_items_came_from(self, small_dataset):
        """A publish landing between the read and the return (an async
        update) must not relabel the answer: ``snapshot_version`` is the
        pinned snapshot's, not a second look at the store."""
        svc = make_service(small_dataset)
        original = svc.index.top_k

        def answer_then_publish(snapshot, user, k):
            items = original(snapshot, user, k)
            for e in stream_edges(small_dataset)[:4]:
                svc.ingest(e)  # a full batch: trains and publishes version 1
            return items

        svc.index.top_k = answer_then_publish
        result = svc.query(0, k=3)
        assert svc.snapshot_version == 1
        assert result.snapshot_version == 0


class TestCacheInvalidation:
    def test_only_affected_entries_are_dropped_and_rest_stay_exact(
        self, small_dataset
    ):
        svc = make_service(small_dataset)
        for user in range(5):
            svc.recommend(user, k=3)
        assert (svc.index.hits, svc.index.misses) == (0, 5)
        for e in stream_edges(small_dataset):
            svc.ingest(e)
        svc.flush()
        # every answer served now is the exact offline one (quiesced parity)
        for user in range(5):
            np.testing.assert_array_equal(
                svc.recommend(user, k=3), svc.offline_top_k(user, k=3)
            )

    def test_touched_user_entry_is_dropped(self, small_dataset):
        svc = make_service(small_dataset)
        svc.recommend(0, k=3)
        svc.recommend(0, k=3)
        assert (svc.index.hits, svc.index.misses) == (1, 1)
        for e in stream_edges(small_dataset)[:4]:  # touches user 0
            svc.ingest(e)
        assert svc.snapshot_version > 0
        np.testing.assert_array_equal(
            svc.recommend(0, k=3), svc.offline_top_k(0, k=3)
        )
        assert (svc.index.hits, svc.index.misses) == (1, 2)  # not the old answer


class TestParityAndMetrics:
    def test_quiesced_service_matches_offline_pipeline(self, small_dataset):
        svc = make_service(small_dataset)
        for e in stream_edges(small_dataset):
            svc.ingest(e)
        svc.flush()
        for user in range(5):
            np.testing.assert_array_equal(
                svc.recommend(user, k=5), svc.offline_top_k(user, k=5)
            )

    def test_recommend_rejects_unknown_user(self, small_dataset):
        svc = make_service(small_dataset)
        with pytest.raises(IndexError):
            svc.recommend(10)

    def test_metrics_export_is_fully_populated(self, small_dataset, tmp_path):
        svc = make_service(small_dataset)
        for e in stream_edges(small_dataset):
            svc.ingest(e)
        svc.flush()
        svc.recommend(0, k=3)
        svc.recommend(0, k=3)
        path = tmp_path / "metrics.json"
        payload = json.loads(svc.metrics.to_json(str(path)))
        assert payload == json.loads(path.read_text())
        expected = {
            "ingest.accepted",
            "ingest.rejected",
            "ingest.dropped",
            "updates.applied",
            "cache.hits",
            "cache.misses",
            "cache.invalidated",
            "serve.recommendations",
            "serve.stale_serves",
            "queue.pending",
            "store.version",
            "staleness.events_behind",
            "latency.recommend_seconds",
            "latency.update_seconds",
        }
        assert expected <= set(payload)
        assert payload["ingest.accepted"]["value"] == 8
        assert payload["updates.applied"]["value"] == 2
        assert payload["latency.recommend_seconds"]["count"] >= 2
        assert payload["cache.hits"]["value"] >= 1
        stats = svc.stats()
        assert stats["events_accepted"] == 8.0
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0

    def test_cache_counters_mirror_the_index(self, small_dataset):
        svc = make_service(small_dataset)
        svc.recommend(0, k=3)
        svc.recommend(0, k=3)
        svc.recommend(1, k=3)
        assert (svc.index.hits, svc.index.misses) == (1, 2)
        assert svc.metrics.counter("cache.hits").value == 1
        assert svc.metrics.counter("cache.misses").value == 2

    def test_concurrent_ingest_never_fails_on_its_metrics_mirror(self, small_dataset):
        """Eight producers race ``ingest()``.  The registry used to mirror
        the queue's tallies read-then-set (a slower thread's older reading
        raised ``ValueError``); the instruments are sourced now, so nothing
        can raise out of an ``ingest()`` whose event was already accepted
        and the export reads the owner's exact total."""
        threads, per_thread = 8, 1500
        svc = make_service(small_dataset, capacity=threads * per_thread)
        svc.queue.pause()  # buffer only: the race is in ingest, not training
        errors = []

        def produce(worker):
            try:
                for i in range(per_thread):
                    svc.ingest(StreamEdge(worker % 5, 5, "click", float(i)))
            except Exception as exc:  # the regression: ValueError from the mirror
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=produce, args=(w,)) for w in range(threads)
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert errors == []
        offered = threads * per_thread
        assert svc.queue.accepted == offered
        assert svc.metrics.counter("ingest.offered").value == offered
        assert svc.metrics.counter("ingest.accepted").value == offered

"""Per-event stage timestamps: queue-wait attribution inside the service.

With ``ServeConfig.clock_fn`` set, every accepted event is stamped at
admission and its wait until the batch cut lands in the HDR-backed
``latency.queue_wait_seconds`` histogram; each update's train and
publish phases land in ``stage.train_seconds`` / ``stage.publish_seconds``.
A fake clock makes the waits exact.
"""

import itertools

import pytest

from repro.serve.service import RecommendationService, ServeConfig


class TickClock:
    """Returns 0.0, 1.0, 2.0, ... — one tick per call."""

    def __init__(self):
        self._counter = itertools.count()

    def __call__(self) -> float:
        return float(next(self._counter))


def make_service(dataset, clock_fn, batch_size=4, **kwargs):
    kwargs.setdefault("capacity", 16)
    return RecommendationService(
        dataset,
        config=ServeConfig(batch_size=batch_size, clock_fn=clock_fn, **kwargs),
    )


class TestQueueWaitStamps:
    def test_waits_are_exact_under_a_fake_clock(self, small_dataset, small_stream):
        svc = make_service(small_dataset, TickClock(), batch_size=4)
        for edge in list(small_stream)[:4]:
            svc.ingest(edge)
        # Stamps 0,1,2,3; the batch cut reads the clock once (t=4), so
        # waits are 4-0, 4-1, 4-2, 4-3.
        waits = svc.metrics.histogram("latency.queue_wait_seconds")
        assert waits.count == 4
        assert waits.sum == pytest.approx(4 + 3 + 2 + 1)
        # one backend: the summary and percentile() cannot disagree, and
        # a reported quantile is the bucket bound just above the exact one
        assert waits.as_dict()["p99"] == waits.percentile(99.0)
        assert 4.0 <= waits.percentile(99.0) <= 4.0 * (1 + waits.relative_error)
        svc.close()

    def test_no_clock_no_stamps(self, small_dataset, small_stream):
        svc = RecommendationService(
            small_dataset, config=ServeConfig(batch_size=4, capacity=16)
        )
        for edge in list(small_stream)[:4]:
            svc.ingest(edge)
        assert svc.metrics.histogram("latency.queue_wait_seconds").count == 0
        svc.close()

    def test_flush_stamps_the_partial_batch(self, small_dataset, small_stream):
        svc = make_service(small_dataset, TickClock(), batch_size=8)
        for edge in list(small_stream)[:3]:
            svc.ingest(edge)
        assert svc.metrics.histogram("latency.queue_wait_seconds").count == 0
        svc.flush()
        assert svc.metrics.histogram("latency.queue_wait_seconds").count == 3
        svc.close()

    def test_evicted_events_drop_their_stamps(self, small_dataset, small_stream):
        svc = make_service(
            small_dataset,
            TickClock(),
            batch_size=4,
            capacity=4,
            overflow="drop_oldest",
        )
        edges = list(small_stream)
        # Fill to capacity without cutting a batch is impossible here
        # (capacity == batch_size), so drive the journal hook directly:
        # accept 2, evict 1, then a 1-event batch must observe 1 wait.
        svc._journal_decision("accept", edges[0], 0)
        svc._journal_decision("accept", edges[1], 0)
        svc._journal_decision("evict", edges[0], 0)
        assert len(svc._accept_times) == 1
        svc._journal_decision("batch", None, 1)
        assert svc.metrics.histogram("latency.queue_wait_seconds").count == 1
        assert len(svc._accept_times) == 0
        svc.close()

    def test_recovery_preload_mismatch_clears_stamps(self, small_dataset, small_stream):
        """preload() buffers events without journaling acceptance; a
        batch larger than the stamp deque must drop the partial stamps
        rather than misattribute waits across a restart."""
        svc = make_service(small_dataset, TickClock(), batch_size=4)
        edges = list(small_stream)
        svc._journal_decision("accept", edges[0], 0)  # one stamped event
        svc._journal_decision("batch", None, 3)  # batch includes preloads
        assert svc.metrics.histogram("latency.queue_wait_seconds").count == 0
        assert len(svc._accept_times) == 0
        svc.close()


class TestTrainPublishSplit:
    def test_stage_histograms_record_per_batch(self, small_dataset, small_stream):
        svc = make_service(small_dataset, TickClock(), batch_size=4)
        for edge in list(small_stream)[:8]:
            svc.ingest(edge)
        train = svc.metrics.histogram("stage.train_seconds")
        publish = svc.metrics.histogram("stage.publish_seconds")
        assert train.count == 2  # two 4-event batches
        assert publish.count == 2
        for stage in (train, publish):
            assert stage.as_dict()["p99"] == stage.percentile(99.0)
        svc.close()

    def test_stages_recorded_even_without_clock_fn(self, small_dataset, small_stream):
        """Train/publish timing uses the histogram's own timer, not the
        per-event stamp clock — it is always on."""
        svc = RecommendationService(
            small_dataset, config=ServeConfig(batch_size=4, capacity=16)
        )
        for edge in list(small_stream)[:4]:
            svc.ingest(edge)
        assert svc.metrics.histogram("stage.train_seconds").count == 1
        assert svc.metrics.histogram("stage.publish_seconds").count == 1
        svc.close()

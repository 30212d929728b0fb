"""Per-event stage timestamps: queue-wait attribution inside the service.

The queue stamps every accepted event as it buffers it (on
``ServeConfig.clock_fn``, ``time.monotonic`` by default) and its wait
until the batch cut lands in the bucketed ``latency.queue_wait_seconds``
histogram; each update's train and publish phases land in
``stage.train_seconds`` / ``stage.publish_seconds``.  A fake clock makes
the waits exact.
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

    def test_default_clock_is_monotonic(self, small_dataset, small_stream):
        """``clock_fn=None`` is ``time.monotonic``, not "no stamps"."""
        svc = RecommendationService(
            small_dataset, config=ServeConfig(batch_size=4, capacity=16)
        )
        for edge in list(small_stream)[:4]:
            svc.ingest(edge)
        waits = svc.metrics.histogram("latency.queue_wait_seconds")
        assert waits.count == 4 and 0.0 <= waits.sum < 60.0
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
        """Accept / evict / cut keep each wait with its own event."""
        svc = make_service(
            small_dataset,
            TickClock(),
            batch_size=4,
            capacity=4,
            overflow="drop_oldest",
        )
        edges = list(small_stream)
        svc.queue.pause()  # capacity == batch_size: fill without cutting
        for edge in edges[:4]:  # stamps 0, 1, 2, 3
            assert svc.ingest(edge)
        assert svc.ingest(edges[4])  # stamp 4; evicts the head (stamp 0)
        assert svc.queue.dropped == 1  # the head is now stamp 1
        svc.flush()  # one cut at t=5: waits 5-1, 5-2, 5-3, 5-4
        waits = svc.metrics.histogram("latency.queue_wait_seconds")
        assert waits.count == 4
        assert waits.sum == pytest.approx(4 + 3 + 2 + 1)
        svc.close()

    def test_preloaded_events_observe_no_wait(self, small_dataset, small_stream):
        """restore() buffers events journaled in a previous process
        life: they carry no stamp, so a batch that mixes them with live
        accepts observes the live waits only — never a wait measured
        across the restart."""
        svc = make_service(small_dataset, TickClock(), batch_size=4)
        edges = list(small_stream)
        svc.queue.restore(edges[:2], accepted=2, watermark=edges[1].t)
        svc.ingest(edges[2])  # stamp 0
        svc.ingest(edges[3])  # stamp 1; completes the batch, cut at t=2
        waits = svc.metrics.histogram("latency.queue_wait_seconds")
        assert waits.count == 2
        assert waits.sum == pytest.approx((2 - 0) + (2 - 1))
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

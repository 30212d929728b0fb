"""Overload behaviour end-to-end: degraded serving, async/inline parity,
crash routing into the breaker, and the deterministic retry deadline.
"""

import math
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import SUPAConfig
from repro.core.model import SUPA
from repro.graph.streams import StreamEdge
from repro.serve.admission import (
    DEPTH_LOWWATER,
    NORMAL,
    SHEDDING,
    AdmissionConfig,
    AdmissionController,
)
from repro.serve import service as service_module
from repro.serve.ingest import BackpressureError, EventQueue
from repro.serve.service import RecommendationService, ServeConfig

from tests.serve import dispatch_threads


def make_service(dataset, poll_seconds=None, **kwargs):
    model = SUPA.for_dataset(
        dataset,
        config=SUPAConfig(dim=8, num_walks=2, walk_length=2, seed=0),
    )
    defaults = dict(batch_size=4, capacity=64)
    defaults.update(kwargs)
    svc = RecommendationService(
        dataset, model=model, config=ServeConfig(**defaults)
    )
    if poll_seconds is not None:  # before the first ingest starts the worker
        svc.dispatcher.poll_seconds = poll_seconds
    return svc


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestDegradedQuery:
    def test_plain_query_is_not_degraded(self, small_dataset):
        svc = make_service(small_dataset)
        result = svc.query(0, k=3)
        assert not result.degraded and result.reason == ""
        assert len(result.items) == 3
        assert result.snapshot_version == svc.snapshot_version

    def test_open_breaker_marks_answers_degraded(self, small_dataset, monkeypatch):
        monkeypatch.setattr(service_module, "BREAKER_THRESHOLD", 1)
        svc = make_service(small_dataset)
        svc._register_dispatch_failure(RuntimeError("worker crash"))
        assert svc.breaker_open
        result = svc.query(0, k=3)
        assert result.degraded and result.reason == "breaker open"
        assert len(result.items) == 3  # still served, from the snapshot
        assert svc.metrics.counter("serve.degraded").value == 1

    def test_admission_shedding_marks_answers_degraded(self, small_dataset):
        svc = make_service(
            small_dataset,
            batch_size=2,
            capacity=8,
            admission=AdmissionConfig(depth_highwater=0.75),
        )
        edges = list(small_dataset.stream)
        svc.queue.pause()  # build depth without dispatching
        for e in edges[:6]:
            assert svc.ingest(e)
        # depth 6/8 = 0.75 crosses the highwater: escalate + shed
        assert not svc.ingest(edges[6])
        assert svc.query(0, k=3).reason == "admission shedding"
        # drain, then one admitted event de-escalates the machine
        svc.queue.resume()
        svc.flush()
        assert svc.ingest(edges[6])
        assert not svc.query(0, k=3).degraded


class TestSheddingStandsDown:
    """Batches are cut by count alone, so SHEDDING must be able to stand
    down above the remainder nothing can cut: ``ServeConfig`` refuses a
    capacity whose ``DEPTH_LOWWATER`` share cannot hold one batch
    (ROADMAP aim 3: no valid configuration may livelock)."""

    @staticmethod
    def queue(batch_size, capacity, highwater):
        """A bare queue + controller (no ``ServeConfig`` in the way)."""
        controller = AdmissionController(AdmissionConfig(depth_highwater=highwater))
        queue = EventQueue(
            lambda batch: None,
            batch_size=batch_size,
            capacity=capacity,
            overflow="drop_new",
            admission=controller,
        )
        return queue, controller

    @staticmethod
    def offer(queue, count, start=0):
        return sum(
            queue.put(StreamEdge(i % 7, 7 + i % 5, "click", float(i)))
            for i in range(start, start + count)
        )

    @pytest.mark.parametrize(
        "highwater, capacity, accepted",
        [
            # a highwater just above the low watermark
            (0.6, 100, 60),
            # the default highwater at the smallest capacity (one batch)
            (0.9, 64, 58),
        ],
    )
    def test_watermarks_below_one_batch_are_refused(self, highwater, capacity, accepted):
        with pytest.raises(ValueError, match=rf"0\.5.*{capacity}.*64"):
            ServeConfig(
                batch_size=64,
                capacity=capacity,
                overflow="drop_new",
                admission=AdmissionConfig(depth_highwater=highwater),
            )
        # what the refusal prevents, on the bare queue: SHEDDING escalates
        # before the first batch fills, and the depth nothing can cut
        # stays above DEPTH_LOWWATER x capacity for good
        queue, controller = self.queue(64, capacity, highwater)
        assert self.offer(queue, 200) == accepted
        assert self.offer(queue, 200, start=200) == 0  # every later event shed
        assert queue.batches_dispatched == 0
        assert queue.pending == accepted and queue.dispatch_next() == 0
        assert controller.state == SHEDDING and controller.de_escalations == 0

    def test_watermarks_holding_one_batch_drain_a_paused_burst(self, tiny_synthetic):
        # DEPTH_LOWWATER x 128 = 64: exactly one batch, the boundary
        svc = make_service(
            tiny_synthetic,
            batch_size=64,
            capacity=128,
            overflow="drop_new",
            admission=AdmissionConfig(depth_highwater=0.75),
        )
        edges = list(tiny_synthetic.stream)
        svc.queue.pause()  # an update is slow while a burst lands
        taken = [svc.ingest(e) for e in edges[:200]]
        assert sum(taken) == 96 and svc.admission.state == SHEDDING
        svc.queue.resume()
        assert all(svc.ingest(e) for e in edges[200:400])  # nothing shed after
        counts = svc.admission.counts()
        assert svc.admission.state == NORMAL and counts["de_escalations"] >= 1
        assert counts["shed"] == 104
        assert svc.updates_applied == (96 + 200) // 64
        assert svc.queue.pending == (96 + 200) % 64  # only the open batch

    @settings(max_examples=200, deadline=None)
    @given(
        batch_size=st.integers(1, 24),
        slack=st.integers(0, 100),
        highwater=st.floats(DEPTH_LOWWATER, 1.0, exclude_min=True),
        prefix=st.integers(0, 60),
        burst=st.integers(0, 300),
    )
    def test_no_accepted_config_strands_a_quiesced_producer(
        self, batch_size, slack, highwater, prefix, burst
    ):
        capacity = batch_size + slack
        admission = AdmissionConfig(depth_highwater=highwater)
        try:
            ServeConfig(batch_size=batch_size, capacity=capacity, admission=admission)
        except ValueError:
            assume(False)
        queue, controller = self.queue(batch_size, capacity, highwater)
        self.offer(queue, prefix)
        queue.pause()
        self.offer(queue, burst, start=prefix)
        queue.resume()  # drains every full batch
        while queue.dispatch_next():
            pass
        # the producer went quiet: whatever is buffered cannot be cut,
        # so the next offer must find SHEDDING able to stand down
        assert queue.pending < batch_size
        assert self.offer(queue, 1, start=prefix + burst) == 1
        assert controller.state == NORMAL


class TestRaiseOnFullQueue:
    def test_full_queue_refuses_then_accepts_once_drained(self, small_dataset):
        """``overflow="raise"`` hands a full queue's refusal to the caller,
        leaves the queue as it was, and admits the same edge once the
        queue has room again."""
        svc = make_service(small_dataset, overflow="raise", batch_size=4, capacity=4)
        edges = list(small_dataset.stream)
        svc.queue.pause()
        for e in edges[:4]:
            assert svc.ingest(e)
        with pytest.raises(BackpressureError):
            svc.ingest(edges[4])
        assert svc.queue.accepted == 4 and svc.queue.pending == 4
        svc.queue.resume()  # drains the ready batch
        assert svc.queue.pending == 0
        assert svc.ingest(edges[4])
        assert svc.queue.accepted == 5 and svc.queue.pending == 1


class TestAsyncInlineParity:
    def test_drained_async_run_is_bitwise_identical_to_inline(
        self, small_dataset
    ):
        from repro.replicate.failover import state_fingerprint

        edges = list(small_dataset.stream)

        inline = make_service(small_dataset)
        for e in edges:
            inline.ingest(e)
        inline.flush()

        deferred = make_service(small_dataset, async_dispatch=True, poll_seconds=0.005)
        for e in edges:
            deferred.ingest(e)
        assert deferred.dispatcher is not None and dispatch_threads()
        deferred.dispatcher.close()  # quiesce: drain ready batches...
        deferred.flush()  # ...and the partial tail

        try:
            assert state_fingerprint(inline) == state_fingerprint(deferred)
            assert (
                inline.model.rng.bit_generator.state
                == deferred.model.rng.bit_generator.state
            )
            assert inline.trainer.rng_state() == deferred.trainer.rng_state()
            for user in range(3):
                np.testing.assert_array_equal(
                    inline.recommend(user, k=5), deferred.recommend(user, k=5)
                )
        finally:
            inline.close()
            deferred.close()


class TestCrashInWorker:
    def test_wal_failure_in_async_dispatch_trips_the_breaker(
        self, small_dataset, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(service_module, "BREAKER_THRESHOLD", 1)
        svc = make_service(
            small_dataset,
            async_dispatch=True,
            poll_seconds=0.005,
            wal_path=str(tmp_path / "events.wal"),
        )
        try:

            def boom(count):
                raise OSError("disk full while journaling the batch cut")

            svc.wal.append_batch = boom
            edges = list(small_dataset.stream)
            for e in edges[:4]:  # one full micro-batch
                assert svc.ingest(e)
            # the failure happens on the worker thread, escapes
            # dispatch_next, reaches on_error and trips the breaker
            assert wait_until(lambda: svc.breaker_open)
            # paused: the uncut batch stays, and no cut is tried again
            assert svc.queue.pending == 4 and svc.queue.dispatch_next() == 0
            assert svc.metrics.counter("breaker.opened").value == 1
            assert svc.metrics.counter("updates.failed").value >= 1
            assert svc.dispatcher.errors >= 1
            assert dispatch_threads()  # crash never killed the thread
            assert svc.query(0, k=3).reason == "breaker open"
        finally:
            svc.close()


class TestShedAccounting:
    def test_shed_counts_separately_from_malformed(self, small_dataset):
        svc = make_service(
            small_dataset,
            batch_size=2,
            capacity=8,
            admission=AdmissionConfig(depth_highwater=0.75),
        )
        edges = list(small_dataset.stream)
        svc.queue.pause()
        # malformed first, while admission is still calm: it must land
        # in ``rejected``, never in ``shed``
        assert not svc.ingest(StreamEdge(0, 5, "click", math.nan))
        for e in edges[:6]:
            assert svc.ingest(e)
        assert not svc.ingest(edges[6])  # shed: reject
        assert svc.queue.shed == 1
        assert svc.queue.rejected == 1
        by_reason = svc.queue.deadletters_by_reason()
        assert by_reason["shed"] == 1
        assert by_reason["malformed"] == 1
        assert svc.metrics.counter("ingest.shed").value == 1
        assert svc.metrics.counter("ingest.rejected").value == 1


class TestOneIntakeDecision:
    """``EventQueue.put`` judges an offer once: validate → late → admit →
    capacity → journal → buffer, in one hold of the queue lock."""

    @pytest.mark.parametrize(
        "bad",
        [
            StreamEdge("abc", 1, "click", 1.0),  # non-integer ids
            StreamEdge(0, 10**6, "click", 1.0),  # outside the universe
            StreamEdge(0, 5, "nope", 1.0),  # unknown edge type
            StreamEdge(0, 5, "click", math.inf),  # non-finite timestamp
        ],
    )
    def test_malformed_offers_never_reach_admission(self, small_dataset, bad):
        svc = make_service(
            small_dataset,
            admission=AdmissionConfig(rate_per_user=0.001, burst=1.0),
        )
        assert svc.ingest(bad) is False
        assert svc.deadletters[-1].reason.startswith("malformed: ")
        assert svc.queue.rejected == 1 and svc.queue.shed == 0
        # validation of outside input precedes policy: nothing offered to
        # the controller, no token charged
        assert svc.admission.offered == 0
        assert svc.ingest(StreamEdge(0, 5, "click", 1.0))  # user 0's one token

    def test_late_offers_never_reach_admission(self, small_dataset):
        svc = make_service(
            small_dataset,
            late_tolerance=1.0,
            admission=AdmissionConfig(rate_per_user=0.001, burst=2.0),
        )
        assert svc.ingest(StreamEdge(0, 5, "click", 10.0))
        assert svc.ingest(StreamEdge(0, 5, "click", 5.0)) is False
        assert svc.deadletters[-1].reason.startswith("late event")
        assert svc.admission.offered == 1
        assert svc.metrics.counter("ingest.late").value == 1
        assert svc.ingest(StreamEdge(0, 6, "click", 11.0))  # the second token

    def test_ingest_holds_the_queue_lock_once_plus_once_per_cut(
        self, small_dataset
    ):
        from reprolint import threadcheck

        edges = list(small_dataset.stream)
        with threadcheck() as monitor:
            svc = make_service(
                small_dataset,
                batch_size=4,
                admission=AdmissionConfig(rate_per_user=100.0),
            )

            def holds(offer):
                before = monitor.acquisitions.get("EventQueue._lock", 0)
                svc.ingest(offer)
                return monitor.acquisitions["EventQueue._lock"] - before

            assert [holds(e) for e in edges[:3]] == [1, 1, 1]
            assert holds(StreamEdge(0, 5, "click", math.nan)) == 1  # refused
            assert holds(edges[3]) == 2  # the accept, then the inline cut
            assert svc.queue.batches_dispatched == 1
        assert monitor.inversions == [] and monitor.unguarded_writes == []
        # the controller is consulted inside the intake decision
        assert ("EventQueue._lock", "AdmissionController._lock") in monitor.order_edges()


class TestNobodyWaitsOnAnUpdate:
    """An update holds the dispatch mutex, never the queue lock: with the
    handler parked mid-update every ingest- and read-side call still
    returns, and only another dispatcher (``flush``) waits its turn."""

    def test_ingest_and_reads_return_while_an_update_is_parked(
        self, small_dataset
    ):
        from reprolint import threadcheck

        edges = list(small_dataset.stream)[:4] + [
            StreamEdge(u=i % 5, v=5 + (i * 3) % 5, t=10.0 + i, edge_type="click")
            for i in range(12)
        ]
        entered, release = threading.Event(), threading.Event()
        trained, results = [], {}
        with threadcheck() as monitor:
            svc = make_service(
                small_dataset,
                async_dispatch=True,
                poll_seconds=0.005,
                admission=AdmissionConfig(),
            )
            train = svc.trainer.train_one_batch

            def parked(batch, batch_index=0):
                trained.append(list(batch))
                if batch_index == 0:
                    entered.set()
                    assert release.wait(30)
                return train(batch, batch_index=batch_index)

            svc.trainer.train_one_batch = parked

            def bystander():
                results["put"] = svc.queue.put(edges[4])
                results["pending"] = svc.queue.pending
                results["ingest"] = [svc.ingest(e) for e in edges[5:14]]
                results["recommend"] = svc.recommend(0, k=3)
                results["query"] = svc.query(0, k=3)

            caller = threading.Thread(target=bystander)
            flusher = threading.Thread(
                target=lambda: results.__setitem__("flushed", svc.flush())
            )
            try:
                for e in edges[:4]:  # one full micro-batch: the update parks
                    assert svc.ingest(e)
                assert entered.wait(30)
                caller.start()
                caller.join(10)
                assert not caller.is_alive()  # nobody waited on the update
                flusher.start()
                flusher.join(0.3)
                assert flusher.is_alive()  # a second dispatcher does wait
            finally:
                release.set()
            flusher.join(30)
            caller.join(30)
            assert not flusher.is_alive()
            svc.close()

        assert results["put"] is True and results["pending"] == 1
        assert results["ingest"] == [True] * 9
        assert len(results["recommend"]) == 3 and not results["query"].degraded
        # flush waited for the batch in flight, then everything drained
        # FIFO in count-cut batches, whichever thread cut them
        assert [len(b) for b in trained] == [4, 4, 4, 2]
        assert [e for b in trained for e in b] == edges[:14]
        assert svc.queue.pending == 0
        assert monitor.inversions == [] and monitor.unguarded_writes == []
        assert ("EventQueue._dispatch_lock", "EventQueue._lock") in monitor.order_edges()

"""Dispatcher-thread lifecycle tests: idempotence, drain, crash routing.

The :class:`DispatchWorker` contract (DESIGN.md §8): start/close are
idempotent, ``close()`` leaves at most a partial micro-batch
behind, a crash escaping a dispatch round lands in ``on_error`` without
killing the worker, and the whole producer/worker dance stays clean
under the concurrency sanitizer.
"""

import os
import threading
import time

import pytest

from repro.graph.streams import StreamEdge
from repro.serve.dispatch import DispatchWorker
from repro.serve.ingest import EventQueue
from reprolint import threadcheck

from tests.serve import dispatch_threads

#: worker poll long enough that tests exercise notify()/close(), not the
#: liveness backstop
SLOW_POLL = 30.0


def edge(i):
    return StreamEdge(u=i, v=i + 100, t=float(i), edge_type="click")


def collector():
    batches = []
    return batches, batches.append


def make_worker(queue, poll_seconds=SLOW_POLL, on_error=None):
    """A worker with its poll overridden before it starts."""
    worker = DispatchWorker(queue, on_error=on_error)
    worker.poll_seconds = poll_seconds
    return worker


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestLifecycle:
    def test_start_is_idempotent(self):
        q = EventQueue(
            lambda b: None, batch_size=2, capacity=8, defer_dispatch=True
        )
        worker = make_worker(q)
        try:
            assert worker.start() is worker
            thread = worker._thread
            assert worker.start() is worker  # second start: same thread
            assert worker._thread is thread
            assert dispatch_threads()
        finally:
            worker.close()

    def test_close_is_idempotent_and_safe_without_start(self):
        q = EventQueue(
            lambda b: None, batch_size=2, capacity=8, defer_dispatch=True
        )
        worker = make_worker(q)
        worker.close()  # never started: no-op
        worker.start()
        worker.close()
        worker.close()  # second close: no-op
        assert not dispatch_threads()

    def test_restart_after_close(self):
        batches, handler = collector()
        q = EventQueue(handler, batch_size=2, capacity=8, defer_dispatch=True)
        worker = make_worker(q)
        worker.start()
        worker.close()
        worker.start()  # a closed worker can come back up
        try:
            for i in range(2):
                q.put(edge(i))
            worker.notify()
            assert wait_until(lambda: len(batches) == 1)
        finally:
            worker.close()

    def test_notify_wakes_the_worker(self):
        batches, handler = collector()
        q = EventQueue(handler, batch_size=2, capacity=8, defer_dispatch=True)
        worker = make_worker(q).start()
        try:
            # the poll is 30s: only notify() can deliver this batch fast
            for i in range(2):
                q.put(edge(i))
            worker.notify()
            assert wait_until(lambda: len(batches) == 1)
            assert worker.events == 2 and worker.batches == 1
        finally:
            worker.close()


class TestDrainOnClose:
    def test_close_drains_ready_batches_on_closers_thread(self):
        batches, handler = collector()
        q = EventQueue(handler, batch_size=2, capacity=16, defer_dispatch=True)
        worker = make_worker(q).start()
        # wait for the startup drain to finish, then buffer 3 batches
        # without notifying — the sleeping worker never sees them
        assert wait_until(lambda: not worker._wake.is_set())
        for i in range(7):
            q.put(edge(i))
        worker.close()  # the closer's thread dispatches the 3
        assert len(batches) == 3
        assert q.pending == 1  # the partial batch stays for flush()
        assert q.flush() == 1


class TestOwnerGone:
    def test_stop_ends_the_drain_between_batches(self):
        """A stop signalled while a batch trains (a dropped service's
        finaliser runs when the batch lets go of it) cuts no further
        batch: the rest stay buffered."""
        batches = []

        def handler(batch):
            batches.append(batch)
            worker.stop()

        q = EventQueue(handler, batch_size=2, capacity=16, defer_dispatch=True)
        for i in range(6):
            q.put(edge(i))
        worker = make_worker(q)
        worker.start()
        assert wait_until(lambda: not dispatch_threads(), timeout=2.0)
        assert len(batches) == 1 and q.pending == 4
        assert worker.batches == 1 and worker.errors == 0
        worker.close()  # the closer's thread still drains what is ready
        assert len(batches) == 3

    def test_a_dropped_async_service_stops_its_worker(self, tmp_path):
        """A service dropped without ``close()`` signals its worker from a
        finaliser: the thread ends, no batch is cut for a handler whose
        target is gone, and the buffered events stay journaled, so
        ``recover()`` retrains them into the inline run's state."""
        import gc

        from repro.core.config import SUPAConfig
        from repro.core.model import SUPA
        from repro.datasets.zoo import load_dataset
        from repro.replicate.failover import state_fingerprint
        from repro.resilience.recovery import recover
        from repro.serve.service import RecommendationService, ServeConfig

        dataset = load_dataset("uci", scale=0.1)
        model_config = SUPAConfig(dim=8, num_walks=2, walk_length=2, seed=0)
        events = list(dataset.stream)[:64]

        def config(**durable):
            return ServeConfig(batch_size=32, capacity=128, **durable)

        durable = config(
            async_dispatch=True,
            wal_path=str(tmp_path / "events.wal"),
            checkpoint_dir=str(tmp_path / "ckpts"),
        )
        svc = RecommendationService(
            dataset, model=SUPA.for_dataset(dataset, model_config), config=durable
        )
        queue, worker, wal = svc.queue, svc.dispatcher, svc.wal
        queue.pause()
        for event in events:
            svc.ingest(event)
        assert dispatch_threads() and queue.pending == 64
        time.sleep(0.2)  # let the last notify's empty drain go back to sleep
        queue.resume()  # two batches ready, and nothing left to train them
        dispatched = queue.batches_dispatched
        del svc
        gc.collect()
        try:
            assert wait_until(lambda: not dispatch_threads(), timeout=2.0)
            time.sleep(2 * worker.poll_seconds)
            assert worker.errors == 0
            assert queue.batches_dispatched == dispatched == 0
            assert queue.pending == 64
        finally:
            wal.close()  # what the dead process's exit would release

        recovered = recover(dataset, durable, model_config=model_config).service
        inline = RecommendationService(
            dataset, model=SUPA.for_dataset(dataset, model_config), config=config()
        )
        for event in events:
            inline.ingest(event)
        for service in (recovered, inline):
            service.flush()
            service.close()
        assert recovered.queue.batches_dispatched == 2
        assert state_fingerprint(recovered) == state_fingerprint(inline)


class TestCrashRouting:
    def test_handler_crash_reaches_on_error_and_worker_survives(self):
        crashes = []
        fail = {"on": True}

        def handler(batch):
            if fail["on"]:
                raise RuntimeError("train blew up")

        q = EventQueue(handler, batch_size=2, capacity=16, defer_dispatch=True)
        worker = make_worker(
            q, 0.01, on_error=crashes.append
        ).start()
        try:
            for i in range(2):
                q.put(edge(i))
            worker.notify()
            assert wait_until(lambda: crashes)
            assert isinstance(crashes[0], RuntimeError)
            assert dispatch_threads()  # the crash never killed the thread
            # after the fault clears the same worker keeps dispatching
            fail["on"] = False
            worker.notify()
            assert wait_until(lambda: q.pending == 0)
        finally:
            worker.close()
        assert worker.errors >= 1

    def test_crashing_error_callback_is_counted_not_fatal(self):
        def handler(batch):
            raise RuntimeError("boom")

        def bad_callback(exc):
            raise ValueError("the error handler is broken too")

        q = EventQueue(handler, batch_size=1, capacity=8, defer_dispatch=True)
        worker = make_worker(
            q, 0.01, on_error=bad_callback
        ).start()
        try:
            q.put(edge(0))
            worker.notify()
            # dispatch crash + callback crash both tallied
            assert wait_until(lambda: worker.errors >= 2)
            assert dispatch_threads()
        finally:
            worker.close()


class TestSanitized:
    def test_producers_and_worker_hammer_cleanly_under_threadcheck(self):
        applied = []
        lock = threading.Lock()

        def handler(batch):
            with lock:
                applied.extend(batch)

        with threadcheck():
            q = EventQueue(
                handler,
                batch_size=4,
                capacity=512,
                overflow="drop_new",
                defer_dispatch=True,
            )
            worker = make_worker(q, 0.005).start()

            def produce(base):
                for i in range(50):
                    q.put(edge(base + i))
                    worker.notify()

            threads = [
                threading.Thread(target=produce, args=(base * 1000,))
                for base in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            worker.close()  # drains every full batch
            q.flush()  # and the partial tail
        with lock:
            done = len(applied)
        assert done == q.accepted == 200
        assert q.pending == 0
        # 200 accepted events cut into full batches of 4: every one of
        # them went through the worker's drain path (none were dropped,
        # none left for flush)
        assert worker.events == 200

    def test_service_hammer_sourced_metrics_equal_their_owners(self, small_dataset):
        """The same 4-producer hammer through a whole service, scraped
        while it runs: a sourced instrument reads its owner at export
        time (no registry lock held, so no order inversion), and at
        quiescence every one of them equals the tally it sources."""
        from repro.obs.export import to_prometheus_text
        from repro.serve.admission import AdmissionConfig
        from repro.serve.service import RecommendationService, ServeConfig
        from tests.oracle.obs import parse_prometheus_text

        edges = list(small_dataset.stream)
        malformed = edges[0]._replace(edge_type="nope")
        scrapes, done = [], threading.Event()
        with threadcheck() as monitor:
            svc = RecommendationService(
                small_dataset,
                config=ServeConfig(
                    batch_size=4,
                    capacity=8,
                    overflow="drop_new",
                    cache_size=2,
                    async_dispatch=True,
                    admission=AdmissionConfig(rate_per_user=1.0, burst=16.0),
                ),
            )
            svc.dispatcher.poll_seconds = 0.005

            def produce(base):
                for i in range(50):
                    svc.ingest(malformed if i % 10 == 9 else edges[(base + i) % len(edges)])
                    svc.recommend((base + i) % 5, k=3)

            def scrape():
                while not done.is_set():
                    scrapes.append(to_prometheus_text(svc.metrics))

            scraper = threading.Thread(target=scrape)
            threads = [threading.Thread(target=produce, args=(b,)) for b in range(4)]
            for t in [scraper] + threads:
                t.start()
            for t in threads:
                t.join()
            done.set()
            scraper.join()
            svc.close()
            svc.flush()
        assert monitor.inversions == [] and monitor.unguarded_writes == []
        assert scrapes and "repro_ingest_accepted" in scrapes[-1]

        value = {k: v["value"] for k, v in svc.metrics.as_dict().items() if "value" in v}
        queue, index, counts = svc.queue, svc.index, svc.admission.counts()
        owners = {
            "ingest.accepted": queue.accepted,
            "ingest.rejected": queue.rejected,
            "ingest.dropped": queue.dropped,
            "ingest.shed": queue.shed,
            "ingest.late": 0,
            "queue.pending": queue.pending,
            "queue.depth_fraction": queue.pending / queue.capacity,
            "admission.admitted": counts["admitted"],
            "admission.throttled": counts["throttled"],
            "admission.shed": counts["shed"],
            "admission.escalations": counts["escalations"],
            "admission.state": float(svc.admission.state == "shedding"),
            "updates.applied": queue.batches_dispatched,
            "cache.hits": index.hits,
            "cache.misses": index.misses,
            "cache.invalidated": index.invalidations,
            "cache.evictions": index.evictions,
            "store.version": svc.store.version,
        }
        assert {name: value[name] for name in owners} == owners
        # every offer was judged exactly once, and the export agrees
        assert value["ingest.offered"] == 200 == (
            queue.accepted + queue.rejected + queue.dropped + queue.shed
        )
        assert queue.rejected == 20 and queue.pending == 0
        assert counts["throttled"] > 0 and queue.batches_dispatched > 0
        assert index.hits + index.misses == value["serve.recommendations"] == 200
        series = parse_prometheus_text(to_prometheus_text(svc.metrics))
        assert series["repro_ingest_accepted"] == queue.accepted


    def test_durable_service_sourced_metrics_equal_their_owners(
        self, small_dataset, tmp_path, monkeypatch
    ):
        """The log's, the checkpoint manager's and the breaker's
        instruments read their owners too: a service opened over a torn
        log, checkpointed, then tripped open by failing updates, scraped
        while it runs."""
        from repro.obs.export import to_prometheus_text
        from repro.serve import service as service_module
        from repro.serve.service import RecommendationService, ServeConfig
        from tests.resilience.test_service_resilience import FailingTrainer

        monkeypatch.setattr(service_module, "BREAKER_THRESHOLD", 2)
        wal_path = tmp_path / "svc.wal"
        wal_path.write_bytes(b'{"crc":1,"half')  # a crashed writer's torn record
        edges = [
            e._replace(t=e.t + 8.0 * lap) for lap in range(2) for e in small_dataset.stream
        ]
        scrapes, done = [], threading.Event()
        with threadcheck() as monitor:
            svc = RecommendationService(
                small_dataset,
                config=ServeConfig(
                    batch_size=4,
                    wal_path=str(wal_path),
                    checkpoint_dir=str(tmp_path / "ckpts"),
                    checkpoint_every=1,
                ),
            )

            def scrape():
                while not done.is_set():
                    scrapes.append(to_prometheus_text(svc.metrics))

            scraper = threading.Thread(target=scrape)
            scraper.start()
            for e in edges[:8]:  # two updates, one checkpoint each
                svc.ingest(e)
            svc.trainer = FailingTrainer(svc.trainer)
            for e in edges[8:]:  # two failed updates open the breaker
                svc.ingest(e)
            done.set()
            scraper.join()
            svc.close()
        assert monitor.inversions == [] and monitor.unguarded_writes == []
        assert scrapes and "repro_breaker_state" in scrapes[-1]

        wal, checkpoints = svc.wal, svc.checkpoints
        assert svc.breaker_open and checkpoints.writes == 2
        assert wal.torn_records_dropped == 1 and wal.appends == 16 + 4
        assert wal.bytes_appended == os.path.getsize(wal_path)
        value = {k: v["value"] for k, v in svc.metrics.as_dict().items() if "value" in v}
        owners = {
            "wal.appends": wal.appends,
            "wal.bytes_appended": wal.bytes_appended,
            "wal.torn_records_dropped": wal.torn_records_dropped,
            "checkpoint.writes": checkpoints.writes,
            "breaker.state": float(svc.breaker_open),
        }
        assert {name: value[name] for name in owners} == owners

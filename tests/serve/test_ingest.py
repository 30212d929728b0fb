"""Tests for the bounded event queue: batching, deadletter, backpressure."""

import pytest

from repro.graph.streams import StreamEdge
from repro.serve.ingest import BackpressureError, EventQueue


def edge(i, t=None):
    return StreamEdge(u=i, v=i + 100, t=float(i if t is None else t), edge_type="click")


def collector():
    batches = []
    return batches, batches.append


class TestBatching:
    def test_dispatches_at_batch_size(self):
        batches, handler = collector()
        q = EventQueue(handler, batch_size=3, capacity=10)
        for i in range(7):
            assert q.put(edge(i))
        assert len(batches) == 2
        assert [len(b) for b in batches] == [3, 3]
        assert q.pending == 1
        assert q.accepted == 7
        assert q.batches_dispatched == 2

    def test_flush_drains_short_final_batch(self):
        batches, handler = collector()
        q = EventQueue(handler, batch_size=3, capacity=10)
        for i in range(4):
            q.put(edge(i))
        assert q.flush() == 1
        assert q.pending == 0
        assert [len(b) for b in batches] == [3, 1]

    def test_out_of_order_arrivals_are_sorted_within_batch(self):
        batches, handler = collector()
        q = EventQueue(handler, batch_size=3, capacity=10)
        for t in (5.0, 1.0, 3.0):
            q.put(edge(0, t=t))
        assert [e.t for e in batches[0]] == [1.0, 3.0, 5.0]

    def test_preserves_arrival_order_when_already_sorted(self):
        batches, handler = collector()
        q = EventQueue(handler, batch_size=3, capacity=10)
        # same timestamp: identity order must survive (stable fast path)
        for i in range(3):
            q.put(StreamEdge(u=i, v=i + 100, t=1.0, edge_type="click"))
        assert [e.u for e in batches[0]] == [0, 1, 2]

    def test_invalid_config_rejected(self):
        _, handler = collector()
        with pytest.raises(ValueError):
            EventQueue(handler, batch_size=0)
        with pytest.raises(ValueError):
            EventQueue(handler, batch_size=8, capacity=4)
        with pytest.raises(ValueError):
            EventQueue(handler, overflow="bounce")


class TestDeadletter:
    def test_malformed_events_never_reach_handler(self):
        batches, handler = collector()
        q = EventQueue(
            handler,
            batch_size=2,
            capacity=10,
            validator=lambda e: "negative id" if e.u < 0 else None,
        )
        assert not q.put(edge(-1))
        assert q.put(edge(1))
        assert q.put(edge(2))
        assert q.rejected == 1
        assert q.deadletters[0].reason == "negative id"
        assert q.deadletters[0].edge.u == -1
        assert all(e.u >= 0 for b in batches for e in b)

    def test_deadletter_buffer_is_bounded_but_counts_are_not(self):
        _, handler = collector()
        q = EventQueue(
            handler,
            batch_size=2,
            capacity=10,
            validator=lambda e: "bad",
            max_deadletters=3,
        )
        for i in range(8):
            q.put(edge(i))
        assert q.rejected == 8
        assert len(q.deadletters) == 3
        assert [d.edge.u for d in q.deadletters] == [5, 6, 7]


class TestBackpressure:
    def make_full(self, overflow):
        batches, handler = collector()
        q = EventQueue(handler, batch_size=2, capacity=3, overflow=overflow)
        q.pause()  # stop dispatch so the buffer can actually fill
        for i in range(3):
            q.put(edge(i))
        assert q.pending == 3
        return q, batches

    def test_raise_policy(self):
        q, _ = self.make_full("raise")
        with pytest.raises(BackpressureError):
            q.put(edge(99))
        assert q.pending == 3 and q.dropped == 0

    def test_drop_new_policy(self):
        q, _ = self.make_full("drop_new")
        assert not q.put(edge(99))
        assert q.pending == 3
        assert q.dropped == 1
        assert [e.u for e in q.buffered_at(lambda: 0)[1]] == [0, 1, 2]
        assert q.deadletters[-1].edge.u == 99

    def test_drop_oldest_policy(self):
        q, _ = self.make_full("drop_oldest")
        assert q.put(edge(99))
        assert q.pending == 3
        assert q.dropped == 1
        assert [e.u for e in q.buffered_at(lambda: 0)[1]] == [1, 2, 99]
        assert q.deadletters[-1].edge.u == 0


class TestPauseResume:
    def test_pause_buffers_resume_drains(self):
        batches, handler = collector()
        q = EventQueue(handler, batch_size=2, capacity=10)
        q.pause()
        for i in range(5):
            q.put(edge(i))
        assert batches == [] and q.pending == 5
        q.resume()
        assert [len(b) for b in batches] == [2, 2]
        assert q.pending == 1

    def test_flush_overrides_pause(self):
        batches, handler = collector()
        q = EventQueue(handler, batch_size=2, capacity=10)
        q.pause()
        for i in range(3):
            q.put(edge(i))
        assert q.flush() == 3
        assert q.pending == 0
        # flush drains but does not silently resume: a full batch stays
        q.put(edge(3))
        q.put(edge(4))
        assert q.dispatch_next() == 0 and q.pending == 2 and len(batches) == 2


class TestDeadletterTrimRegression:
    def test_zero_max_deadletters_keeps_no_letters_but_counts(self):
        # regression: the trim used ``del deadletters[:-0]`` which is a
        # no-op, so max_deadletters=0 grew the buffer without bound
        _, handler = collector()
        q = EventQueue(
            handler,
            batch_size=2,
            capacity=10,
            validator=lambda e: "bad",
            max_deadletters=0,
        )
        for i in range(6):
            q.put(edge(i))
        assert q.deadletters == []
        assert q.rejected == 6
        assert q.reason_counts["malformed"] == 6  # a validator refusal, by kind


class TestLateEvents:
    def test_stale_events_are_deadlettered(self):
        batches, handler = collector()
        q = EventQueue(handler, batch_size=4, capacity=10, late_tolerance=1.0)
        assert q.put(edge(0, t=10.0))
        assert q.put(edge(1, t=9.5))  # within tolerance of watermark 10.0
        assert not q.put(edge(2, t=8.5))  # more than 1.0 behind
        assert q.reason_counts["late event"] == 1
        assert q.deadletters[0].reason.startswith("late event")
        assert q.deadletters[0].edge.u == 2
        assert q.accepted == 2 and q.rejected == 1

    def test_watermark_advances_only_on_accepts(self):
        _, handler = collector()
        q = EventQueue(handler, batch_size=4, capacity=10, late_tolerance=0.0)
        q.put(edge(0, t=5.0))
        assert not q.put(edge(1, t=3.0))
        assert q.max_timestamp == 5.0  # the rejected event left no trace
        assert q.put(edge(2, t=7.0))
        assert q.max_timestamp == 7.0

    def test_none_tolerance_accepts_any_regression(self):
        _, handler = collector()
        q = EventQueue(handler, batch_size=4, capacity=10)
        q.put(edge(0, t=100.0))
        assert q.put(edge(1, t=0.0))
        assert q.rejected == 0

    def test_negative_tolerance_rejected(self):
        _, handler = collector()
        with pytest.raises(ValueError):
            EventQueue(handler, late_tolerance=-0.5)


class TestConcurrentPut:
    """Hammer ``put`` from several threads; the ledger must balance."""

    THREADS = 4
    PER_THREAD = 200
    CAPACITY = 32

    def hammer(self, overflow):
        import threading

        from reprolint import threadcheck

        batches, handler = collector()
        # the whole hammer runs under the lock sanitizer: any lock-order
        # inversion or unguarded write across the worker threads fails
        # the test even when the ledger happens to balance
        with threadcheck() as monitor:
            q = EventQueue(
                handler,
                batch_size=8,
                capacity=self.CAPACITY,
                overflow=overflow,
                max_deadletters=10_000,
            )
            q.pause()  # dispatch off: the buffer genuinely fills
            raised = [0] * self.THREADS

            def worker(tid):
                for i in range(self.PER_THREAD):
                    try:
                        q.put(edge(tid * self.PER_THREAD + i, t=float(i)))
                    except BackpressureError:
                        raised[tid] += 1

            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            q.resume()
            q.flush()
        assert monitor.inversions == []
        assert monitor.unguarded_writes == []
        dispatched = sum(len(b) for b in batches)
        return q, sum(raised), dispatched

    def test_raise_policy_conserves_events(self):
        q, raised, dispatched = self.hammer("raise")
        offered = self.THREADS * self.PER_THREAD
        assert raised > 0  # the hammer actually hit capacity
        assert q.accepted + raised == offered
        assert dispatched == q.accepted
        assert q.dropped == 0 and q.rejected == 0

    def test_drop_new_policy_conserves_events(self):
        q, raised, dispatched = self.hammer("drop_new")
        offered = self.THREADS * self.PER_THREAD
        assert raised == 0
        assert q.dropped > 0
        assert q.accepted + q.dropped == offered
        assert dispatched == q.accepted
        assert len(q.deadletters) == q.dropped

    def test_drop_oldest_policy_conserves_events(self):
        q, raised, dispatched = self.hammer("drop_oldest")
        offered = self.THREADS * self.PER_THREAD
        assert raised == 0
        assert q.accepted == offered  # every offer is accepted...
        assert q.dropped == offered - self.CAPACITY  # ...at the old ones' expense
        assert dispatched + q.pending == q.accepted - q.dropped
        assert dispatched == self.CAPACITY and q.pending == 0

    def test_unpaused_inline_hammer_cuts_fifo_batches(self):
        """Several producers, dispatch live, a handler that takes time:
        whoever completes a batch trains it while the others keep
        buffering.  The ledger balances and the batches are exactly the
        ones a single producer would cut from the same accepted order."""
        import sys
        import threading
        import time

        from reprolint import threadcheck

        batches, accepted_order, cuts = [], [], []

        def handler(batch):
            batches.append(list(batch))
            time.sleep(0.0005)  # long enough for the other producers to pile up

        class RecordingJournal:
            """The five ``append_*`` methods of the write-ahead log."""

            def append_accept(self, edge_):
                accepted_order.append(edge_)

            def append_evict(self, edge_, reason=""):
                raise AssertionError("overflow='raise' never evicts")

            append_shed = append_throttle = append_evict

            def append_batch(self, count):
                cuts.append(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with threadcheck() as monitor:
                q = EventQueue(
                    handler,
                    batch_size=8,
                    capacity=self.CAPACITY,
                    journal=RecordingJournal(),
                )
                raised = [0] * self.THREADS

                def worker(tid):
                    for i in range(self.PER_THREAD):
                        try:
                            # equal timestamps: a batch keeps arrival order
                            q.put(edge(tid * self.PER_THREAD + i, t=0.0))
                        except BackpressureError:
                            raised[tid] += 1

                threads = [
                    threading.Thread(target=worker, args=(t,))
                    for t in range(self.THREADS)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert not any(t.is_alive() for t in threads)
                dispatched = sum(len(b) for b in batches)
                assert q.accepted == dispatched + q.pending
                assert q.pending < q.batch_size  # nothing ready was left behind
                q.flush()
        finally:
            sys.setswitchinterval(interval)
        assert monitor.inversions == [] and monitor.unguarded_writes == []
        assert q.accepted + sum(raised) == self.THREADS * self.PER_THREAD
        assert len(accepted_order) == q.accepted
        assert cuts == [len(b) for b in batches]  # every cut journaled, in order

        single_batches, single_handler = collector()
        single = EventQueue(single_handler, batch_size=8, capacity=self.CAPACITY)
        for e in accepted_order:
            single.put(e)
        single.flush()
        assert batches == [list(b) for b in single_batches]

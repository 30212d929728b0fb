"""Unit tests for the runtime lock sanitizer (``analysis/sanitizer.py``).

Covers the monitor mechanics with purpose-built fixture classes (order
inversions across two threads, self-deadlock detection, RLock reentry,
unguarded writes, patch/unpatch hygiene) and that an audit *derived*
from the static ``lock-discipline`` inference — how
:func:`default_audits` gets its guarded sets — catches a seeded
unguarded write.
"""

import json
import threading

import pytest

from reprolint import Audit, LockMonitor, SanitizedLock, threadcheck
from reprolint.concurrency import infer_guarded
from reprolint.sanitizer import default_audits


class _Pair:
    """Two sanitized locks with distinct rank names, for order tests."""

    def __init__(self, monitor, reentrant=False):
        make = threading.RLock if reentrant else threading.Lock
        self.a = SanitizedLock(monitor, "A._lock", make())
        self.b = SanitizedLock(monitor, "B._lock", make())


class TestLockMonitor:
    def test_consistent_order_is_clean(self):
        monitor = LockMonitor()
        locks = _Pair(monitor)
        for _ in range(3):
            with locks.a:
                with locks.b:
                    pass
        assert monitor.ok
        assert monitor.acquisitions == {"A._lock": 3, "B._lock": 3}
        assert monitor.order_edges() == [("A._lock", "B._lock")]

    def test_order_inversion_across_two_threads(self):
        monitor = LockMonitor()
        locks = _Pair(monitor)

        def forward():
            with locks.a:
                with locks.b:
                    pass

        def backward():
            with locks.b:
                with locks.a:
                    pass

        # sequential threads: deterministic, records the edge then the
        # inversion without ever actually deadlocking
        for target in (forward, backward):
            t = threading.Thread(target=target)
            t.start()
            t.join()

        assert not monitor.ok
        assert len(monitor.inversions) == 1
        inv = monitor.inversions[0]
        assert inv["kind"] == "order-inversion"
        assert inv["acquiring"] == "A._lock"
        assert inv["holding"] == ["B._lock"]
        assert inv["prior_site"], "the first A->B site must be attached"

    def test_inversion_reported_once_per_edge(self):
        monitor = LockMonitor()
        locks = _Pair(monitor)
        with locks.a:
            with locks.b:
                pass
        for _ in range(3):
            with locks.b:
                with locks.a:
                    pass
        # once inverted, the B->A edge is known; repeats are not news
        assert len(monitor.inversions) == 1

    def test_self_deadlock_on_plain_lock(self):
        monitor = LockMonitor()
        lock = SanitizedLock(monitor, "Q._lock", threading.Lock())
        assert lock.acquire()
        # non-blocking so the test itself cannot hang: the monitor still
        # sees the re-acquisition attempt that would deadlock for real
        assert lock.acquire(blocking=False) is False
        lock.release()
        assert len(monitor.inversions) == 1
        assert monitor.inversions[0]["kind"] == "self-deadlock"

    def test_rlock_reentry_is_clean(self):
        monitor = LockMonitor()
        lock = SanitizedLock(monitor, "Q._lock", threading.RLock())
        with lock:
            with lock:
                assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()
        assert monitor.ok
        assert monitor.acquisitions == {"Q._lock": 1}  # reentry is not a new hold

    def test_same_rank_different_instances_not_ordered(self):
        monitor = LockMonitor()
        first = SanitizedLock(monitor, "Q._lock", threading.Lock())
        second = SanitizedLock(monitor, "Q._lock", threading.Lock())
        with first:
            with second:
                pass
        with second:
            with first:
                pass
        assert monitor.ok
        assert monitor.order_edges() == []

    def test_report_and_json_round_trip(self):
        monitor = LockMonitor()
        locks = _Pair(monitor)
        with locks.a:
            with locks.b:
                pass
        payload = json.loads(json.dumps(monitor.report()))
        assert payload["ok"] is True
        assert payload["order_edges"] == [["A._lock", "B._lock"]]
        assert payload["acquisitions"] == {"A._lock": 1, "B._lock": 1}
        assert payload["inversions"] == []
        assert payload["unguarded_writes"] == []

    def test_assert_clean_raises_with_report(self):
        monitor = LockMonitor()
        monitor.record_unguarded_write("Q", "count")
        with pytest.raises(AssertionError, match="unguarded_writes"):
            monitor.assert_clean()


class _Guarded:
    """Fixture class audited in the threadcheck tests below."""

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def safe_inc(self):
        with self._lock:
            self.count += 1

    def rogue_inc(self):
        self.count += 1  # reprolint: disable=lock-discipline


_GUARDED_AUDIT = Audit(_Guarded, "_lock", frozenset({"count"}))


class TestThreadcheck:
    def test_unguarded_write_from_second_thread(self):
        with threadcheck(audits=[_GUARDED_AUDIT]) as monitor:
            obj = _Guarded()
            obj.safe_inc()
            t = threading.Thread(target=obj.rogue_inc)
            t.start()
            t.join()
        assert obj.count == 2
        assert len(monitor.unguarded_writes) == 1
        report = monitor.unguarded_writes[0]
        assert report["class"] == "_Guarded"
        assert report["attr"] == "count"
        assert report["site"]

    def test_guarded_writes_and_init_are_clean(self):
        with threadcheck(audits=[_GUARDED_AUDIT]) as monitor:
            obj = _Guarded()  # __init__ writes count=0: exempt
            for _ in range(5):
                obj.safe_inc()
            monitor.assert_clean()
        assert monitor.acquisitions == {"_Guarded._lock": 5}

    def test_patching_is_restored_on_exit(self):
        before_init = _Guarded.__init__
        before_setattr = _Guarded.__dict__.get("__setattr__")
        with threadcheck(audits=[_GUARDED_AUDIT]):
            inside = _Guarded()
            assert isinstance(inside._lock, SanitizedLock)
        assert _Guarded.__init__ is before_init
        assert _Guarded.__dict__.get("__setattr__") is before_setattr
        outside = _Guarded()
        assert isinstance(outside._lock, type(threading.Lock()))
        # rogue writes after the block are nobody's business again
        outside.rogue_inc()

    def test_default_audits_cover_the_real_classes(self):
        audits = default_audits()
        names = {a.cls.__name__ for a in audits}
        assert {
            "EventQueue",
            "VersionedEmbeddingStore",
            "TopKIndex",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "RecommendationService",
            "WriteAheadLog",
            "CheckpointManager",
        } <= names


def test_derived_audit_catches_a_seeded_unguarded_write():
    """The guarded sets are inferred from source, not typed in: the
    audit derived for the toy class names ``count`` and flags the one
    write that skips the lock."""
    guarded = infer_guarded(_Guarded)
    assert guarded == {"_lock": frozenset({"count"})}
    with threadcheck(audits=[Audit(_Guarded, "_lock", guarded["_lock"])]) as monitor:
        obj = _Guarded()
        obj.safe_inc()
        assert monitor.ok
        obj.rogue_inc()
    assert [w["attr"] for w in monitor.unguarded_writes] == ["count"]

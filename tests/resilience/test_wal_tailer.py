"""Tests for WAL heartbeats, streaming reads and tailing."""

import os
import threading

import pytest

from repro.graph.streams import StreamEdge
from repro.resilience.wal import (
    WalTailError,
    WalTailer,
    WriteAheadLog,
    iter_records,
    scan,
)
from tests.resilience import fold


def edge(i, t=None):
    return StreamEdge(u=i, v=i + 100, t=float(i if t is None else t), edge_type="click")


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "test.wal")


class TestHeartbeat:
    def test_heartbeat_roundtrip_preserves_stamp(self, wal_path):
        awkward = 0.1 + 0.2
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
            wal.append_heartbeat(awkward)
        records = scan(wal_path).records
        assert [r.kind for r in records] == ["accept", "heartbeat"]
        assert records[1].t == awkward  # exact, not approximate
        assert records[1].edge is None

    def test_heartbeats_are_skipped_by_the_fold(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_heartbeat(1.0)
            wal.append_accept(edge(1))
            wal.append_heartbeat(2.0)
            wal.append_batch(1)
            wal.append_heartbeat(3.0)
        state = fold(iter_records(wal_path))
        assert state.accepted == 1
        assert state.trained == [edge(1)]
        assert state.fifo == []


class TestIterRecords:
    def test_streams_the_same_prefix_as_scan(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            for i in range(6):
                wal.append_accept(edge(i))
        assert list(iter_records(wal_path)) == scan(wal_path).records

    def test_stops_at_torn_tail(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
            wal.append_accept(edge(2))
        with open(wal_path, "ab") as fh:
            fh.write(b'{"partial')  # no newline: torn
        assert [r.seq for r in iter_records(wal_path)] == [1, 2]

    def test_missing_log_yields_nothing(self, tmp_path):
        assert list(iter_records(str(tmp_path / "nope.wal"))) == []


class TestTailer:
    def test_incremental_polls_see_live_appends(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            tailer = WalTailer(wal_path)
            wal.append_accept(edge(1))
            assert [r.seq for r in tailer.poll()] == [1]
            assert tailer.poll() == []  # idle writer: nothing pending
            wal.append_accept(edge(2))
            wal.append_batch(2)
            assert [r.seq for r in tailer.poll()] == [2, 3]
            assert tailer.bytes_read == os.path.getsize(wal_path)

    def test_torn_tail_is_pending_not_fatal(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
        tailer = WalTailer(wal_path)
        with open(wal_path, "ab") as fh:
            fh.write(b'{"half')  # a writer mid-flush
        assert [r.seq for r in tailer.poll()] == [1]
        assert tailer.poll() == []  # still pending, not an error
        # writer crash-repair truncates the torn tail and appends anew
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(2))
        assert [r.seq for r in tailer.poll()] == [2]

    def test_terminated_corruption_raises(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
        tailer = WalTailer(wal_path)
        tailer.poll()
        with open(wal_path, "ab") as fh:
            fh.write(b"garbage\n")  # terminated => not a pending flush
        with pytest.raises(WalTailError, match="corrupt"):
            tailer.poll()

    def test_vanished_log_raises_after_commit(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
        tailer = WalTailer(wal_path)
        tailer.poll()
        os.remove(wal_path)
        with pytest.raises(WalTailError, match="vanished"):
            tailer.poll()

    def test_max_records_bounds_one_poll(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            for i in range(5):
                wal.append_accept(edge(i))
        tailer = WalTailer(wal_path)
        assert len(tailer.poll(max_records=2)) == 2
        assert len(tailer.poll()) == 3

    def test_backlog_counts_unread_bytes(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
            wal.append_accept(edge(2))
        tailer = WalTailer(wal_path)
        tailer.poll(max_records=1)
        assert tailer.backlog_bytes > 0
        tailer.poll()
        assert tailer.backlog_bytes == 0


class TestConcurrentAppendAndTail:
    def test_tailer_keeps_up_with_live_writer_under_threadcheck(self, wal_path):
        """One writer appends while a tailer polls
        concurrently; the tailer must observe every record exactly once,
        in sequence, and the lock sanitizer must stay clean."""
        from reprolint import threadcheck

        total = 200
        with threadcheck() as monitor:
            wal = WriteAheadLog(wal_path)
            tailer = WalTailer(wal_path)
            seen = []
            errors = []

            def tail():
                try:
                    while len(seen) < total:
                        seen.extend(tailer.poll())
                except Exception as exc:  # surfaced by the main thread
                    errors.append(exc)

            reader = threading.Thread(target=tail)
            reader.start()
            for i in range(total):
                wal.append_accept(edge(i % 50, t=float(i)))
            reader.join(timeout=30)
            wal.close()
            assert not reader.is_alive(), "tailer never caught up"
        monitor.assert_clean()
        assert not errors, errors
        assert [r.seq for r in seen] == list(range(1, total + 1))
        assert tailer.bytes_read == os.path.getsize(wal_path)
        assert tailer.backlog_bytes == 0

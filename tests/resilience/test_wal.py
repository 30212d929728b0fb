"""Tests for the write-ahead log: roundtrip, torn tails, CRC, sequencing."""

import os

import pytest

from repro.graph.streams import StreamEdge
from repro.resilience.wal import WalRecord, WriteAheadLog, _encode, scan


def edge(i, t=None):
    return StreamEdge(u=i, v=i + 100, t=float(i if t is None else t), edge_type="click")


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "test.wal")


class TestRoundtrip:
    def test_append_scan_roundtrip(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1, t=1.5))
            wal.append_accept(edge(2, t=2.5))
            wal.append_batch(2)
            wal.append_evict(edge(1, t=1.5))
        result = scan(wal_path)
        assert result.dropped_records == 0
        assert [r.kind for r in result.records] == [
            "accept",
            "accept",
            "batch",
            "evict",
        ]
        assert [r.seq for r in result.records] == [1, 2, 3, 4]
        assert result.records[0].edge == edge(1, t=1.5)
        assert result.records[2].count == 2
        assert result.last_seq == 4

    def test_timestamps_roundtrip_bit_exactly(self, wal_path):
        awkward = 0.1 + 0.2  # 0.30000000000000004
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1, t=awkward))
        (record,) = scan(wal_path).records
        assert record.edge.t == awkward  # exact, not approximate

    def test_missing_file_scans_empty(self, tmp_path):
        result = scan(str(tmp_path / "nope.wal"))
        assert result.records == [] and result.last_seq == 0

    def test_batch_count_must_be_positive(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            with pytest.raises(ValueError):
                wal.append_batch(0)


class TestTornTail:
    def test_unterminated_final_record_is_dropped(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
            wal.append_accept(edge(2))
        with open(wal_path, "ab") as fh:
            fh.write(b'{"kind":"accept","seq":3')  # torn mid-write
        result = scan(wal_path)
        assert result.last_seq == 2
        assert result.dropped_records == 1

    def test_reopen_truncates_and_continues_sequence(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
        with open(wal_path, "ab") as fh:
            fh.write(b"garbage that is not json\n")
        wal = WriteAheadLog(wal_path)
        assert wal.last_seq == 1
        assert wal.torn_records_dropped == 1
        wal.append_accept(edge(2))
        wal.close()
        result = scan(wal_path)
        assert [r.seq for r in result.records] == [1, 2]
        assert result.dropped_records == 0  # the repair was persisted

    def test_crc_corruption_ends_the_valid_prefix(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            for i in range(1, 5):
                wal.append_accept(edge(i))
        with open(wal_path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        # flip one byte inside record 3's body
        corrupt = bytearray(lines[2])
        corrupt[10] ^= 0xFF
        with open(wal_path, "wb") as fh:
            fh.write(b"".join(lines[:2]) + bytes(corrupt) + lines[3])
        result = scan(wal_path)
        assert result.last_seq == 2
        assert result.dropped_records == 2  # the corrupt record and its successor

    def test_sequence_gap_ends_the_valid_prefix(self, wal_path):
        with open(wal_path, "wb") as fh:
            fh.write(_encode(WalRecord(1, "accept", edge(1))))
            fh.write(_encode(WalRecord(3, "accept", edge(3))))  # gap: no seq 2
        result = scan(wal_path)
        assert result.last_seq == 1
        assert result.dropped_records == 1


class TestLifecycle:
    def test_append_after_close_raises(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.close()
        assert wal.closed
        with pytest.raises(ValueError):
            wal.append_accept(edge(1))

    def test_metrics_count_appends_and_torn_repairs(self, wal_path):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        with WriteAheadLog(wal_path, metrics=metrics) as wal:
            wal.append_accept(edge(1))
            wal.append_batch(1)
        assert metrics.counter("wal.appends").value == 2
        with open(wal_path, "ab") as fh:
            fh.write(b"torn")
        WriteAheadLog(wal_path, metrics=metrics).close()
        assert metrics.counter("wal.torn_records_dropped").value == 1

    def test_parent_directories_are_created(self, tmp_path):
        nested = str(tmp_path / "a" / "b" / "deep.wal")
        with WriteAheadLog(nested) as wal:
            wal.append_accept(edge(1))
        assert os.path.exists(nested)

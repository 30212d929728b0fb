"""One cursor: every reader of a damaged log agrees with ``scan``.

``iter_records``, ``scan`` and ``WalTailer.poll`` are three consumers of
one walk (``wal._Cursor``), so they cannot disagree about where a log's
valid prefix ends.  The sweep below damages a rotating multi-segment log
at *every* byte offset of *every* segment — once by truncating there,
once by flipping the byte — and holds all three, plus the writer's
self-repair on open, to that (ROADMAP item 8c: torn writes anywhere, not
only at the tail).
"""

import os

import pytest

from repro.graph.streams import StreamEdge
from repro.resilience.wal import (
    EOF,
    GAP,
    INVALID,
    TORN,
    WalTailError,
    WalTailer,
    WriteAheadLog,
    _Cursor,
    iter_records,
    scan,
    segment_paths,
)

RECORDS = 14


def edge(i):
    return StreamEdge(u=i, v=i + 100, t=float(i), edge_type="click")


def write_log(path, segment_bytes=200):
    with WriteAheadLog(path, segment_bytes=segment_bytes) as wal:
        for i in range(RECORDS):
            if i % 5 == 4:
                wal.append_batch(2)
            elif i % 7 == 6:
                wal.append_heartbeat(float(i))
            else:
                wal.append_accept(edge(i))


def drain(tailer, chunk=3):
    """Poll to quiescence; returns (records committed, raised?)."""
    seen = []
    while True:
        try:
            records = tailer.poll(max_records=chunk)
        except WalTailError:
            return seen, True
        if not records:
            return seen, False
        seen.extend(records)


def damaged_logs(tmp_path):
    """Yield ``(label, path)`` for the pristine log damaged at every byte
    offset of every segment; each case rebuilds the directory, so what a
    reopening writer repaired never leaks into the next."""
    root = tmp_path / "pristine"
    root.mkdir()
    write_log(str(root / "sweep.wal"))
    pristine = {
        os.path.basename(p): open(p, "rb").read()
        for p in segment_paths(str(root / "sweep.wal"))
    }
    assert len(pristine) >= 4  # rotation really happened
    work = tmp_path / "work"
    work.mkdir()
    path = str(work / "sweep.wal")
    for name, data in pristine.items():
        for offset in range(len(data)):
            flipped = bytearray(data)
            flipped[offset] ^= 0xFF
            for kind, damaged in (("cut", data[:offset]), ("flip", bytes(flipped))):
                for stale in os.listdir(work):
                    os.remove(work / stale)
                for other, content in pristine.items():
                    (work / other).write_bytes(damaged if other == name else content)
                yield f"{kind} {name}@{offset}", path


def test_every_reader_agrees_with_scan_at_every_byte_offset(tmp_path):
    cases = 0
    stops = set()
    for label, path in damaged_logs(tmp_path):
        cases += 1
        expected = scan(path)
        assert expected.last_seq == len(expected.records) < RECORDS, label
        assert list(iter_records(path)) == expected.records, label

        cursor = _Cursor(path)
        assert list(cursor) == expected.records, label
        stops.add(cursor.stop)
        tailed, raised = drain(WalTailer(path))
        assert raised == (cursor.stop in (INVALID, GAP)), label
        if raised:  # never a record scan rejects: a prefix of scan's
            assert tailed == expected.records[: len(tailed)], label
        else:
            assert tailed == expected.records, label

        with WriteAheadLog(path, segment_bytes=200) as wal:
            assert wal.last_seq == expected.last_seq, label
            repaired = scan(path)
            assert repaired.records == expected.records, label
            assert repaired.dropped_records == 0, label
            assert repaired.dropped_segments == [], label
            appended = wal.append_accept(edge(99))
        assert appended.seq == expected.last_seq + 1, label
        assert scan(path).records == expected.records + [appended], label
    assert cases > 1500
    assert stops == {EOF, TORN, INVALID, GAP}  # the sweep reaches every stop


def test_committed_position_survives_crash_repair_at_every_tear(tmp_path):
    """A live writer crashes mid-append at every byte of a record that
    landed in a rotated segment; the tailer, already committed into that
    segment, reports the tear as pending, and after the writer's
    crash-repair truncation picks up the new timeline where it stood."""
    path = str(tmp_path / "live.wal")
    wal = WriteAheadLog(path, segment_bytes=200)
    tailer = WalTailer(path)
    for i in range(4):
        wal.append_accept(edge(i))
    assert [r.seq for r in tailer.poll()] == [1, 2, 3, 4]
    active = segment_paths(path)[-1]
    assert active != path and os.path.getsize(active) > 0  # committed past a rotation
    wal.close()
    with WriteAheadLog(str(tmp_path / "donor.wal")) as donor:
        donor.append_accept(edge(50))
    line = open(str(tmp_path / "donor.wal"), "rb").read()

    seq = 4
    for tear in range(1, len(line)):
        with open(active, "ab") as fh:
            fh.write(line[:tear])  # the crash: an unterminated record
        assert tailer.poll() == []  # pending, not an error
        assert tailer.committed_seq == seq
        with WriteAheadLog(path) as wal:  # crash-repair, then carry on
            assert wal.torn_records_dropped == 1
            assert wal.append_accept(edge(seq)).seq == seq + 1
        assert [r.seq for r in tailer.poll()] == [seq + 1]
        seq += 1
        active = segment_paths(path)[-1]
    assert tailer.committed_seq == seq == scan(path).last_seq
    assert tailer.backlog_bytes == 0


def test_a_tailer_started_before_the_log_exists_picks_it_up(tmp_path):
    path = str(tmp_path / "late.wal")
    tailer = WalTailer(path)
    assert tailer.poll() == []
    with WriteAheadLog(path) as wal:
        wal.append_accept(edge(1))
    assert [r.seq for r in tailer.poll()] == [1]


def test_a_log_missing_its_first_segment_is_a_gap_for_every_reader(tmp_path):
    path = str(tmp_path / "headless.wal")
    write_log(path)
    os.remove(path)  # seq 1.. gone; the rest is named past it
    status = scan(path)
    assert status.records == [] == list(iter_records(path))
    assert status.valid_path == path and status.valid_bytes == 0
    assert status.dropped_segments == segment_paths(path)
    with pytest.raises(WalTailError, match="sequence gap"):
        WalTailer(path).poll()
